package session

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"sectorpack/internal/core"
	"sectorpack/internal/faultfs"
	"sectorpack/internal/model"
)

// The session journal is an append-only write-ahead log of one session's
// life: a create record (solver, core options, base instance) followed by
// one delta record per state-advancing Apply. Replaying the journal through
// session.New + Session.Apply reconstructs the session's warm state — and,
// by the package's determinism contract, a solution bit-identical to a
// from-scratch solve of the materialized instance.
//
// On-disk layout:
//
//	magic "SPJRNL1\n" | u64 version | frame*
//	frame = u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// (all integers little-endian; payloads are JSON journalRecords). A crash
// mid-append leaves a torn final frame: a short header, a short payload, or
// a CRC mismatch. Recovery (ReadJournal) stops at the first bad frame,
// truncates the file back to the last good frame boundary, and returns the
// records before it — the torn suffix is an Apply whose response was never
// durably acknowledged, so dropping it is correct. A bad frame is always
// treated as end-of-log: nothing after it can be trusted, because frame
// boundaries downstream of a corrupt length are guesses.
//
// Durability cadence: the create record is always fsynced (and the journal
// directory synced) before CreateJournal returns — a session must not be
// acknowledged before its journal exists on disk. Delta appends group-commit:
// with syncEvery = n, an fsync is issued once n appends accumulate, so at
// most n-1 acknowledged deltas can be lost to a crash (with the default
// n = 1, none). Sync and Close flush whatever is pending.
const (
	journalMagic   = "SPJRNL1\n"
	journalVersion = 1
	// maxFrameLen rejects absurd frame lengths (a torn length field read as
	// garbage) before any allocation happens.
	maxFrameLen = 64 << 20
)

// journalRecord is the JSON payload of one frame. Kind "create" carries
// Solver/Core/Instance; kind "delta" carries Delta/IdemKey.
type journalRecord struct {
	Kind     string          `json:"kind"`
	Solver   string          `json:"solver,omitempty"`
	Core     *core.Options   `json:"core,omitempty"`
	Instance *model.Instance `json:"instance,omitempty"`
	Delta    *model.Delta    `json:"delta,omitempty"`
	IdemKey  string          `json:"idem_key,omitempty"`
}

// Journal is the append side of one session's WAL. It is not safe for
// concurrent use; the owner must serialize appends the same way it
// serializes Session.Apply (in sectord, both happen under the session
// entry's lock).
type Journal struct {
	fsys      faultfs.FS
	f         faultfs.File
	path      string
	syncEvery int
	pending   int   // appended frames not yet fsynced
	broken    error // first write/sync failure; poisons all later ops
}

func encodeFrame(rec journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encode %s record: %w", rec.Kind, err)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	return frame, nil
}

// CreateJournal starts a new journal at path (truncating any previous file
// there), writes the create record, and makes both the record and the
// file's directory entry durable before returning. syncEvery <= 1 fsyncs
// every delta append; n > 1 group-commits every n appends.
func CreateJournal(fsys faultfs.FS, path string, opt Options, in *model.Instance, syncEvery int) (*Journal, error) {
	if in == nil {
		return nil, fmt.Errorf("journal: nil instance")
	}
	if opt.Solver == "" {
		opt.Solver = "greedy"
	}
	if syncEvery < 1 {
		syncEvery = 1
	}
	frame, err := encodeFrame(journalRecord{
		Kind:     "create",
		Solver:   opt.Solver,
		Core:     &opt.Core,
		Instance: in,
	})
	if err != nil {
		return nil, err
	}
	f, err := fsys.Create(path)
	if err != nil {
		return nil, fmt.Errorf("journal: create %s: %w", path, err)
	}
	fail := func(err error) (*Journal, error) {
		// Best-effort cleanup of the half-written file: err already tells
		// the caller the journal was never created, and a leftover file is
		// harmless — recovery rejects it as torn.
		_ = f.Close()
		_ = fsys.Remove(path)
		return nil, err
	}
	var header []byte
	header = append(header, journalMagic...)
	header = binary.LittleEndian.AppendUint64(header, journalVersion)
	if _, err := f.Write(append(header, frame...)); err != nil {
		return fail(fmt.Errorf("journal: write create record: %w", err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("journal: sync create record: %w", err))
	}
	// The file's own directory entry must survive a crash too, or recovery
	// will never see the journal.
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fail(fmt.Errorf("journal: sync journal directory: %w", err))
	}
	return &Journal{fsys: fsys, f: f, path: path, syncEvery: syncEvery}, nil
}

// OpenAppend reopens an existing journal for further appends, after
// ReadJournal has validated it and truncated any torn tail. It does not
// re-read the file.
func OpenAppend(fsys faultfs.FS, path string, syncEvery int) (*Journal, error) {
	if syncEvery < 1 {
		syncEvery = 1
	}
	// The reopened handle writes nothing here; each later AppendDelta syncs
	// on the group-commit cadence, and Sync/Close flush the window.
	//sectorlint:ignore fsyncorder append handle reopened after recovery; group commit fsyncs in AppendDelta/Sync
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: reopen %s: %w", path, err)
	}
	return &Journal{fsys: fsys, f: f, path: path, syncEvery: syncEvery}, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// AppendDelta journals one state-advancing delta. The caller must append
// every delta that advanced the session's instance — including deltas whose
// re-solve failed (Session.Apply installs the new instance before solving)
// — or replay will diverge from the live session. A write or sync failure
// poisons the journal: every later call returns the same error, and the
// owner must stop acknowledging deltas for this session.
func (j *Journal) AppendDelta(d model.Delta, idemKey string) error {
	if j.broken != nil {
		return j.broken
	}
	frame, err := encodeFrame(journalRecord{Kind: "delta", Delta: &d, IdemKey: idemKey})
	if err != nil {
		return err
	}
	if _, err := j.f.Write(frame); err != nil {
		j.broken = fmt.Errorf("journal: append delta: %w", err)
		return j.broken
	}
	j.pending++
	if j.pending >= j.syncEvery {
		return j.Sync()
	}
	return nil
}

// Sync flushes any appends the group-commit window is still holding.
func (j *Journal) Sync() error {
	if j.broken != nil {
		return j.broken
	}
	if j.pending == 0 {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		j.broken = fmt.Errorf("journal: sync: %w", err)
		return j.broken
	}
	j.pending = 0
	return nil
}

// Close flushes pending appends and closes the file. The journal stays on
// disk; Remove deletes it.
func (j *Journal) Close() error {
	serr := j.Sync()
	cerr := j.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Remove closes the journal (without flushing — the session is being
// discarded) and deletes the file. The removal error is the one that
// matters: a close failure on a file about to be unlinked is moot.
func (j *Journal) Remove() error {
	_ = j.f.Close()
	return j.fsys.Remove(j.path)
}

// DeltaRecord is one replayed delta plus the idempotency key it was
// journaled with.
type DeltaRecord struct {
	Delta   model.Delta
	IdemKey string
}

// Recovered is a journal read back from disk: everything needed to rebuild
// the session by replay, plus what recovery had to discard.
type Recovered struct {
	Solver   string
	Core     core.Options
	Instance *model.Instance
	Deltas   []DeltaRecord
	// TruncatedBytes is how many bytes of torn tail ReadJournal cut off
	// (zero for a cleanly closed journal).
	TruncatedBytes int64
}

// LastIdemKey returns the idempotency key of the final journaled delta, or
// "" when no delta carried one.
func (r *Recovered) LastIdemKey() string {
	if len(r.Deltas) == 0 {
		return ""
	}
	return r.Deltas[len(r.Deltas)-1].IdemKey
}

// ReadJournal reads a session journal, truncating any torn tail in place
// (which is why it opens read-write). The header and create record must be
// intact — without them there is no session to rebuild and the error is
// fatal for this journal. Past that, the first bad frame ends the log:
// everything before it is returned, everything from it on is cut off and
// counted in TruncatedBytes.
func ReadJournal(fsys faultfs.FS, path string) (*Recovered, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	headerLen := len(journalMagic) + 8
	if len(raw) < headerLen || string(raw[:len(journalMagic)]) != journalMagic {
		return nil, fmt.Errorf("journal: %s: bad or missing header", path)
	}
	if v := binary.LittleEndian.Uint64(raw[len(journalMagic):]); v != journalVersion {
		return nil, fmt.Errorf("journal: %s: version %d (want %d)", path, v, journalVersion)
	}

	rec := &Recovered{}
	off := headerLen
	good := off // end of the last fully valid frame
	first := true
	for off < len(raw) {
		payload, next, ok := readFrame(raw, off)
		if !ok {
			break
		}
		var jr journalRecord
		if err := json.Unmarshal(payload, &jr); err != nil {
			break
		}
		if first {
			if jr.Kind != "create" || jr.Instance == nil || jr.Core == nil {
				return nil, fmt.Errorf("journal: %s: first record is not a valid create record", path)
			}
			rec.Solver, rec.Core, rec.Instance = jr.Solver, *jr.Core, jr.Instance
			first = false
		} else {
			if jr.Kind != "delta" || jr.Delta == nil {
				break
			}
			rec.Deltas = append(rec.Deltas, DeltaRecord{Delta: *jr.Delta, IdemKey: jr.IdemKey})
		}
		off, good = next, next
	}
	if first {
		// The create record itself was torn; there is nothing to recover.
		return nil, fmt.Errorf("journal: %s: create record torn or missing", path)
	}
	if good < len(raw) {
		rec.TruncatedBytes = int64(len(raw) - good)
		if err := f.Truncate(int64(good)); err != nil {
			return nil, fmt.Errorf("journal: truncate torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("journal: sync truncated %s: %w", path, err)
		}
	}
	return rec, nil
}

// readFrame parses one frame at off. ok is false for any tear: short
// header, absurd length, short payload, or CRC mismatch.
func readFrame(raw []byte, off int) (payload []byte, next int, ok bool) {
	if off+8 > len(raw) {
		return nil, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(raw[off:]))
	crc := binary.LittleEndian.Uint32(raw[off+4:])
	if plen <= 0 || plen > maxFrameLen || off+8+plen > len(raw) {
		return nil, 0, false
	}
	payload = raw[off+8 : off+8+plen]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, false
	}
	return payload, off + 8 + plen, true
}

// Replay rebuilds the session the journal describes: New on the base
// instance, then Apply for every journaled delta, in order. By the
// determinism contract the result is bit-identical to the crashed session's
// state. A delta whose solve failed was journaled all the same, because
// Apply had already installed its instance and the live session went on
// from there; replay goes on from there too. Only the last delta's solve
// must succeed, since the recovered session serves its answer. Any other
// failure aborts the recovery of this session — a half-replayed session
// must not serve.
func (r *Recovered) Replay(ctx context.Context) (*Session, error) {
	s, err := New(ctx, r.Instance, Options{Solver: r.Solver, Core: r.Core})
	if err != nil {
		return nil, fmt.Errorf("journal replay: create: %w", err)
	}
	for k, dr := range r.Deltas {
		before := s.Instance()
		if _, err := s.Apply(ctx, dr.Delta); err != nil && (s.Instance() == before || k == len(r.Deltas)-1) {
			return nil, fmt.Errorf("journal replay: delta %d/%d: %w", k+1, len(r.Deltas), err)
		}
	}
	return s, nil
}
