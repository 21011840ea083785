package storage_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/storage"
)

// FuzzSortReadReqs checks the buffered merge sort against
// slices.SortStableFunc, the stable-order definition, on arbitrary offsets:
// the first input byte sets how many distinct offsets there are (few means
// heavy ties), the rest are the offsets. Every request carries a distinct
// buffer length as its identity, so a tie swapped shows. The buffer is
// reused across calls and prefix lengths, and must come back cleared.
func FuzzSortReadReqs(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 5, 4, 3, 2, 1})
	f.Add([]byte{255, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1})
	ties := make([]byte, 1, 200)
	ties[0] = 3
	for i := 1; i < cap(ties); i++ {
		ties = append(ties, byte(i*7))
	}
	f.Add(ties)
	var buf []storage.ReadReq
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		distinct := int64(data[0]) + 1
		offs := data[1:]
		ids := make([]byte, len(offs))
		for _, n := range []int{len(offs), len(offs) / 2, len(offs) / 3} {
			reqs := make([]storage.ReadReq, n)
			for i := range reqs {
				reqs[i] = storage.ReadReq{P: ids[:i], Off: int64(offs[i]) % distinct * 4096}
			}
			want := slices.Clone(reqs)
			slices.SortStableFunc(want, func(a, b storage.ReadReq) int { return cmp.Compare(a.Off, b.Off) })
			buf = storage.SortReadReqs(reqs, buf)
			for i := range reqs {
				if reqs[i].Off != want[i].Off || len(reqs[i].P) != len(want[i].P) {
					t.Fatalf("n=%d: position %d holds (off %d, id %d), want (off %d, id %d)",
						n, i, reqs[i].Off, len(reqs[i].P), want[i].Off, len(want[i].P))
				}
			}
			for i, r := range buf[:cap(buf)] {
				if r.P != nil || r.Off != 0 || r.View {
					t.Fatalf("n=%d: buffer slot %d kept %+v", n, i, r)
				}
			}
		}
	})
}

// BenchmarkSortReadReqs sorts a batch of random offsets through a warm
// buffer, as a device's ReadBatch does with the value log's unsorted
// record reads.
func BenchmarkSortReadReqs(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			src := make([]storage.ReadReq, n)
			for i := range src {
				src[i] = storage.ReadReq{Off: rng.Int63n(1<<20) * 4096}
			}
			reqs := make([]storage.ReadReq, n)
			var buf []storage.ReadReq
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(reqs, src)
				buf = storage.SortReadReqs(reqs, buf)
			}
		})
	}
}
