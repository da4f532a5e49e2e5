// Cache snapshots: a versioned, checksummed dump of the verified canonical
// solutions the LRU holds, written atomically (temp + fsync + rename +
// dir-fsync via faultfs) so a crash or redeploy never leaves a torn file,
// and loaded entry-by-entry on restart so one corrupt frame costs one entry,
// not the warm start.
//
// Trust model: a snapshot is a warm-start hint, not an authority. The load
// path checks the envelope versions (snapshot layout AND fingerprint
// version — a key computed by an older canonicalization must never alias a
// new one), a CRC per entry frame, and structural sanity per entry (key
// shape, owner indices in range, finite floats, non-negative profit);
// anything that fails is skipped and counted, never restored. Semantic
// verification is deliberately NOT done here — it needs the instance, which
// only arrives with a request — so every restored entry is re-gated through
// core.VerifySolution by the serving layer on its first hit, exactly like
// any other cache entry (a failure drops the entry and solves fresh). A
// restored solution is therefore never served unverified.
//
// What is deliberately not persisted: hit/miss/eviction counters (they
// describe one process's life), in-flight singleflights, and degraded
// solutions (never cached in the first place).
package cache

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"sectorpack/internal/faultfs"
	"sectorpack/internal/model"
)

// snapshotMagic identifies a sectord cache snapshot file.
const snapshotMagic = "SPSNAP1\n"

// snapshotVersion is bumped whenever the byte layout below changes.
const snapshotVersion = 1

// maxSnapshotDim bounds per-entry slice lengths at load time; anything
// larger is a corrupt length field, not a real instance.
const maxSnapshotDim = 1 << 26

// SnapshotReport describes one load: how many entries were restored into
// the cache and how many were rejected (CRC mismatch, torn frame,
// structural nonsense).
type SnapshotReport struct {
	Restored int64
	Skipped  int64
}

// entrySnap is one entry in snapshot order.
type entrySnap struct {
	key string
	sol model.Solution
}

// snapshotEntries copies the live entries in LRU→MRU order, so restoring
// them in file order with putLocked (which pushes to the front) rebuilds
// the same recency order.
func (c *Cache) snapshotEntries() []entrySnap {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]entrySnap, 0, c.ll.Len())
	for e := c.ll.Back(); e != nil; e = e.Prev() {
		ent := e.Value.(*entry)
		out = append(out, entrySnap{key: ent.key, sol: ent.solution()})
	}
	return out
}

// WriteSnapshot streams a snapshot of the current entries to w and returns
// the number of entries written. The entries are copied out under the lock
// first; the (possibly slow) writing happens unlocked, so a periodic flush
// never stalls serving.
func (c *Cache) WriteSnapshot(w io.Writer) (int, error) {
	entries := c.snapshotEntries()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return 0, err
	}
	var buf [8]byte
	u64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, err := bw.Write(buf[:])
		return err
	}
	if err := u64(snapshotVersion); err != nil {
		return 0, err
	}
	if err := u64(fingerprintVersion); err != nil {
		return 0, err
	}
	if err := u64(uint64(len(entries))); err != nil {
		return 0, err
	}
	for _, e := range entries {
		payload := encodeSnapshotEntry(e.key, e.sol)
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
		if _, err := bw.Write(buf[:8]); err != nil {
			return 0, err
		}
		if _, err := bw.Write(payload); err != nil {
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return len(entries), nil
}

// SaveSnapshot writes the snapshot to path atomically through fsys
// (faultfs.WriteFileAtomic: temp file, fsync, rename, directory fsync). On
// any error the previous snapshot at path is untouched.
func (c *Cache) SaveSnapshot(fsys faultfs.FS, path string) (int, error) {
	var n int
	err := faultfs.WriteFileAtomic(fsys, path, func(w io.Writer) error {
		var werr error
		n, werr = c.WriteSnapshot(w)
		return werr
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// encodeSnapshotEntry renders one entry's frame payload: every field
// length-prefixed or fixed-width, little-endian, floats as IEEE-754 bits.
func encodeSnapshotEntry(key string, sol model.Solution) []byte {
	m, n := len(sol.Assignment.Orientation), len(sol.Assignment.Owner)
	size := 4 + len(key) + 4 + len(sol.Algorithm) + 8 + 8 + 4 + 8*m + 4 + 8*n
	b := make([]byte, 0, size)
	str := func(s string) {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	str(key)
	str(sol.Algorithm)
	b = binary.LittleEndian.AppendUint64(b, uint64(sol.Profit))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sol.UpperBound))
	b = binary.LittleEndian.AppendUint32(b, uint32(m))
	for _, a := range sol.Assignment.Orientation {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for _, o := range sol.Assignment.Owner {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(o)))
	}
	return b
}

// decodeSnapshotEntry parses and structurally validates one frame payload.
func decodeSnapshotEntry(b []byte) (string, model.Solution, error) {
	var sol model.Solution
	str := func() (string, error) {
		if len(b) < 4 {
			return "", fmt.Errorf("truncated length")
		}
		n := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if n > uint32(len(b)) {
			return "", fmt.Errorf("string length %d beyond payload", n)
		}
		s := string(b[:n])
		b = b[n:]
		return s, nil
	}
	u64 := func() (uint64, error) {
		if len(b) < 8 {
			return 0, fmt.Errorf("truncated u64")
		}
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v, nil
	}
	u32 := func() (uint32, error) {
		if len(b) < 4 {
			return 0, fmt.Errorf("truncated u32")
		}
		v := binary.LittleEndian.Uint32(b)
		b = b[4:]
		return v, nil
	}
	key, err := str()
	if err != nil {
		return "", sol, fmt.Errorf("key: %w", err)
	}
	if len(key) != 64 || !isHex(key) {
		return "", sol, fmt.Errorf("key %q is not a hex fingerprint", key)
	}
	if sol.Algorithm, err = str(); err != nil {
		return "", sol, fmt.Errorf("algorithm: %w", err)
	}
	profit, err := u64()
	if err != nil {
		return "", sol, err
	}
	sol.Profit = int64(profit)
	if sol.Profit < 0 {
		return "", sol, fmt.Errorf("negative profit %d", sol.Profit)
	}
	ubBits, err := u64()
	if err != nil {
		return "", sol, err
	}
	sol.UpperBound = math.Float64frombits(ubBits)
	if math.IsNaN(sol.UpperBound) || sol.UpperBound < 0 {
		return "", sol, fmt.Errorf("invalid upper bound %v", sol.UpperBound)
	}
	m, err := u32()
	if err != nil {
		return "", sol, err
	}
	if m > maxSnapshotDim {
		return "", sol, fmt.Errorf("orientation length %d beyond sanity cap", m)
	}
	as := &model.Assignment{Orientation: make([]float64, m)}
	for j := range as.Orientation {
		bits, err := u64()
		if err != nil {
			return "", sol, fmt.Errorf("orientation[%d]: %w", j, err)
		}
		as.Orientation[j] = math.Float64frombits(bits)
		if math.IsNaN(as.Orientation[j]) {
			return "", sol, fmt.Errorf("orientation[%d] is NaN", j)
		}
	}
	n, err := u32()
	if err != nil {
		return "", sol, err
	}
	if n > maxSnapshotDim {
		return "", sol, fmt.Errorf("owner length %d beyond sanity cap", n)
	}
	as.Owner = make([]int, n)
	for i := range as.Owner {
		v, err := u64()
		if err != nil {
			return "", sol, fmt.Errorf("owner[%d]: %w", i, err)
		}
		o := int64(v)
		if o != int64(model.Unassigned) && (o < 0 || o >= int64(m)) {
			return "", sol, fmt.Errorf("owner[%d] = %d out of range [0,%d)", i, o, m)
		}
		as.Owner[i] = int(o)
	}
	if len(b) != 0 {
		return "", sol, fmt.Errorf("%d trailing bytes in entry", len(b))
	}
	sol.Assignment = as
	return key, sol, nil
}

func isHex(s string) bool {
	for _, c := range s {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// ReadSnapshot restores entries from r into the cache. The envelope (magic
// and both versions) must match exactly — a stale snapshot from an older
// layout or fingerprint scheme is rejected whole, because its keys could
// silently alias different solves. Per-entry failures (bad CRC, torn frame,
// structural nonsense) skip that entry and are counted in the report; a
// torn tail additionally counts every entry the header promised but the
// file no longer holds.
func (c *Cache) ReadSnapshot(r io.Reader) (SnapshotReport, error) {
	var rep SnapshotReport
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return rep, fmt.Errorf("snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return rep, fmt.Errorf("not a cache snapshot (bad magic %q)", magic)
	}
	var buf [8]byte
	u64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, buf[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:8]), nil
	}
	ver, err := u64()
	if err != nil {
		return rep, fmt.Errorf("snapshot header: %w", err)
	}
	if ver != snapshotVersion {
		return rep, fmt.Errorf("unsupported snapshot version %d (want %d)", ver, snapshotVersion)
	}
	fpv, err := u64()
	if err != nil {
		return rep, fmt.Errorf("snapshot header: %w", err)
	}
	if fpv != fingerprintVersion {
		return rep, fmt.Errorf("snapshot fingerprint version %d does not match this build's %d; keys would alias different solves", fpv, fingerprintVersion)
	}
	count, err := u64()
	if err != nil {
		return rep, fmt.Errorf("snapshot header: %w", err)
	}
	for k := uint64(0); k < count; k++ {
		if _, err := io.ReadFull(br, buf[:8]); err != nil {
			// Torn tail: every remaining promised entry is lost.
			rep.Skipped += int64(count - k)
			break
		}
		plen := binary.LittleEndian.Uint32(buf[:4])
		sum := binary.LittleEndian.Uint32(buf[4:8])
		if plen > 16*maxSnapshotDim {
			rep.Skipped += int64(count - k)
			break // a corrupt length desynchronizes framing; stop here
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			rep.Skipped += int64(count - k)
			break
		}
		if crc32.ChecksumIEEE(payload) != sum {
			// The frame boundary is still trustworthy (we read exactly plen
			// bytes), so a bit-rotted entry costs itself, not the rest.
			rep.Skipped++
			continue
		}
		key, sol, err := decodeSnapshotEntry(payload)
		if err != nil {
			rep.Skipped++
			continue
		}
		c.restore(key, sol)
		rep.Restored++
	}
	return rep, nil
}

// LoadSnapshot reads the snapshot at path through fsys into the cache. A
// missing file is not an error — it is a cold start — and returns a zero
// report with os.ErrNotExist wrapped for callers that care.
func (c *Cache) LoadSnapshot(fsys faultfs.FS, path string) (SnapshotReport, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return SnapshotReport{}, err
	}
	defer f.Close()
	return c.ReadSnapshot(f)
}

// restore inserts a snapshot entry. Restores count separately from live
// stores and never overwrite an entry a request already populated (the live
// entry is at least as fresh).
func (c *Cache) restore(key string, sol model.Solution) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	c.putCountedLocked(key, sol, &c.restored)
}
