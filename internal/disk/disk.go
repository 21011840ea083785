// Package disk models a magnetic hard disk (a Hitachi Deskstar 7K80-class
// drive, the paper's BH+Disk / DB+Disk configuration in §7) with the classic
// mechanical latency decomposition:
//
//	service = seek(distance) + rotational delay + transfer
//
// Seek time grows with the square root of the seek distance between a
// track-to-track minimum and a full-stroke maximum; rotational delay is
// drawn deterministically (seeded) from [0, rotation period); sequential
// accesses that continue where the previous operation ended skip both seek
// and rotation (track-buffer streaming).
//
// Calibration targets from the paper: ~7 ms average random 4 KB access
// (Berkeley-DB on disk: 6.8 ms lookups, 7 ms inserts), worst case ~12 ms
// (BufferHash-on-disk worst-case insert), and cheap sequential streaming
// (BufferHash's flushes amortize to microseconds per entry even on disk).
package disk

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// Profile holds the mechanical parameters of a disk model.
type Profile struct {
	Name           string
	SectorSize     int
	TrackToTrack   time.Duration // minimum seek between adjacent tracks
	MaxSeekExtra   time.Duration // full-stroke seek = TrackToTrack + MaxSeekExtra
	RotationPeriod time.Duration // one platter revolution (8.33 ms at 7200 rpm)
	TransferRate   float64       // sustained media rate, bytes per second
	FixedOverhead  time.Duration // controller/command overhead per op
}

// Hitachi7K80 returns the calibrated 7200-rpm profile used throughout the
// evaluation.
func Hitachi7K80() Profile {
	return Profile{
		Name:           "hitachi-7k80",
		SectorSize:     4096,
		TrackToTrack:   800 * time.Microsecond,
		MaxSeekExtra:   4200 * time.Microsecond,
		RotationPeriod: 8333 * time.Microsecond,
		TransferRate:   55e6,
		FixedOverhead:  100 * time.Microsecond,
	}
}

// Disk is a simulated magnetic disk. It implements storage.Device. Not safe
// for concurrent use.
type Disk struct {
	prof     Profile
	capacity int64
	q        *storage.Queue // serves every read and write submission
	lastEnd  int64          // byte position where the previous op finished (-1 initially)
	rng      *rand.Rand
}

// New builds a disk of the given capacity (rounded up to whole sectors).
// The rotational-delay stream is seeded deterministically so simulations
// are reproducible.
func New(prof Profile, capacity int64, clock *vclock.Clock) *Disk {
	if capacity <= 0 {
		panic("disk: non-positive capacity")
	}
	ss := int64(prof.SectorSize)
	if capacity%ss != 0 {
		capacity += ss - capacity%ss
	}
	d := &Disk{
		prof:     prof,
		capacity: capacity,
		lastEnd:  -1,
		rng:      rand.New(rand.NewSource(0x715ac)),
	}
	d.q = storage.NewQueue(d.Geometry(), 1, storage.NewSparseStore(prof.SectorSize), clock)
	return d
}

// SetFault installs a fault-injection hook (nil clears it).
func (d *Disk) SetFault(f storage.FaultFunc) { d.q.Fault = f }

// Geometry implements storage.Device. A disk has no erase unit, so its
// EraseBlock is 0, and its ReadGap is 0: what skipping sectors costs
// depends on the seek distance, so reading through a hole never pays.
func (d *Disk) Geometry() storage.Geometry {
	return storage.Geometry{Capacity: d.capacity, PageSize: d.prof.SectorSize, Lanes: 1}
}

// Counters implements storage.Device.
func (d *Disk) Counters() storage.Counters { return d.q.Counters }

// cost is the mechanical latency of an access of n bytes at off, which
// leaves the head at the access's end. The disk keeps its own run
// detection: an access continuing where the previous one ended, in this
// submission or an earlier one, skips seek and rotation.
func (d *Disk) cost(off int64, n int, _ bool) (time.Duration, error) {
	lat := d.prof.FixedOverhead
	if off != d.lastEnd {
		// Seek distance as a fraction of the full stroke.
		var dist int64
		if d.lastEnd < 0 {
			dist = off
		} else {
			dist = off - d.lastEnd
			if dist < 0 {
				dist = -dist
			}
		}
		frac := float64(dist) / float64(d.capacity)
		lat += d.prof.TrackToTrack + time.Duration(float64(d.prof.MaxSeekExtra)*math.Sqrt(frac))
		lat += time.Duration(d.rng.Int63n(int64(d.prof.RotationPeriod)))
	}
	lat += time.Duration(float64(n) / d.prof.TransferRate * float64(time.Second))
	d.lastEnd = off + int64(n)
	return lat, nil
}

// ReadAt implements storage.Device as a one-request ReadBatch. Reads may
// start at any byte offset.
func (d *Disk) ReadAt(p []byte, off int64) (time.Duration, error) {
	one := [1]storage.ReadReq{{P: p, Off: off}}
	return d.ReadBatch(one[:])
}

// WriteAt implements storage.Device as a one-request WriteBatch. Writes may
// start at any byte offset.
func (d *Disk) WriteAt(p []byte, off int64) (time.Duration, error) {
	one := [1]storage.WriteReq{{P: p, Off: off}}
	return d.WriteBatch(one[:])
}

// ReadBatch implements storage.Device through the disk's queue. A disk
// has one actuator — one queue lane — so batched reads cannot overlap; the
// whole win is command queuing: the caller submits the batch in ascending
// address order (an elevator pass), so the expensive random component
// (seek + rotational delay) is paid once per discontiguous run instead of
// once per request, and same-track neighbors stream from the track buffer.
func (d *Disk) ReadBatch(reqs []storage.ReadReq) (time.Duration, error) {
	return d.q.Read(reqs, nil, d.cost)
}

// WriteBatch implements storage.Device the way ReadBatch serves reads.
func (d *Disk) WriteBatch(reqs []storage.WriteReq) (time.Duration, error) {
	return d.q.Write(reqs, nil, d.cost)
}

var _ storage.Device = (*Disk)(nil)
