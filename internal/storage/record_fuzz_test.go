package storage_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/storage"
)

// encodeRecord lays out a value-log record: uint32 key length, uint32
// value length (little-endian), then the key and value bytes.
func encodeRecord(key, value []byte) []byte {
	rec := make([]byte, 8, storage.RecordSize(len(key), len(value)))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(value)))
	return append(append(rec, key...), value...)
}

// FuzzVerifyRecord feeds VerifyRecord arbitrary record bytes and keys, as
// a corrupted or lapped page would: it must never panic, and it must
// accept only a record whose header is consistent with its size and whose
// stored key equals the key asked for, returning exactly the bytes after
// it. A well-formed record built from the same inputs must verify under
// its own key and under no other.
func FuzzVerifyRecord(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(encodeRecord([]byte("key"), []byte("value")), []byte("key"))
	f.Add(encodeRecord([]byte("key"), []byte("value")), []byte("kex"))
	f.Add(encodeRecord([]byte("key"), []byte("value"))[:10], []byte("key"))
	f.Add([]byte{3, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 'k', 'e', 'y'}, []byte("key"))
	f.Fuzz(func(t *testing.T, rec, key []byte) {
		if v, ok := storage.VerifyRecord(rec, key); ok {
			kl := binary.LittleEndian.Uint32(rec[0:4])
			vl := binary.LittleEndian.Uint32(rec[4:8])
			if int(kl) != len(key) || !bytes.Equal(rec[8:8+len(key)], key) {
				t.Fatalf("accepted a record keyed %q for key %q", rec[8:min(len(rec), 8+int(kl))], key)
			}
			if int(vl) != len(v) || !bytes.Equal(v, rec[8+len(key):]) {
				t.Fatalf("value %q of length %d, header says %d, record tail %q", v, len(v), vl, rec[8+len(key):])
			}
		}
		// rec doubles as a value: the record built from it verifies under
		// key alone.
		good := encodeRecord(key, rec)
		if v, ok := storage.VerifyRecord(good, key); !ok || !bytes.Equal(v, rec) {
			t.Fatalf("well-formed record (%q, %q) read back %q, %v", key, rec, v, ok)
		}
		other := append(bytes.Clone(key), 0)
		if _, ok := storage.VerifyRecord(good, other); ok {
			t.Fatalf("record keyed %q accepted for key %q", key, other)
		}
		if len(key) > 0 {
			other = bytes.Clone(key)
			other[len(other)-1] ^= 1
			if _, ok := storage.VerifyRecord(good, other); ok {
				t.Fatalf("record keyed %q accepted for key %q", key, other)
			}
		}
		if _, ok := storage.VerifyRecord(good[:len(good)-1], key); ok {
			t.Fatalf("truncated record (%q, %q) accepted", key, rec)
		}
	})
}
