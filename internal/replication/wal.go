// Package replication makes a served learner highly available: a durable
// observe log (write-ahead log, this file) on the serve path plus a warm
// standby (follower.go) that streams snapshots and log deltas from the
// primary over HTTP and can take traffic with bit-identical learner state.
//
// The observe log is the durability root. The learner itself is an in-memory
// object; its durable truth is (base snapshot, log suffix): every accepted
// /v1/observe batch is appended here — CRC-framed, fsync-batched,
// segment-rotated — before the engine applies it, so any learner state is
// reconstructible by restoring the snapshot and replaying records from the
// snapshot's cursor. That one property powers three features:
//
//   - crash recovery: a restarted primary restores its last checkpoint and
//     replays the log tail the checkpoint missed,
//   - warm standby: the follower applies the same records in the same order
//     through the same engine, staying bit-identical at every sync point,
//   - fleet fault-in repair: a corrupt per-user eviction checkpoint is
//     rebuilt from deterministic reconstruction plus the user's log records.
//
// Durability model: a record is written with a direct write(2) before the
// observe is acknowledged, so acknowledged batches survive process death
// (SIGKILL) — the bytes live in the page cache. fsync is batched (every
// Options.SyncEvery appends, and always on rotation and Close), so machine
// crashes can lose at most the last unsynced batch of records; the CRC
// framing and torn-tail truncation make any such loss a clean prefix, never
// a corrupt state.
//
// File format (all integers little-endian). A log is a directory of segment
// files named wal-<first-seq>.log:
//
//	segment header:
//	  offset  size  field
//	  0       8     magic "CHAMWAL1"
//	  8       4     uint32 format version (currently 1)
//	  12      8     uint64 sequence number of the segment's first record
//	record frame (repeated to EOF):
//	  0       4     uint32 payload length
//	  4       4     uint32 CRC-32 (IEEE) over the payload
//	  8       n     payload (see encodeRecord)
//
// Recovery rule: scanning a segment, a frame that is incomplete or fails its
// CRC *and reaches end of file* is a torn tail — the segment is truncated to
// the last good frame and appending continues. A bad frame with further
// bytes after it is real corruption and Open fails loudly: silently skipping
// a mid-log record would desynchronize every replica.
package replication

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"chameleon/internal/api"
	"chameleon/internal/obs"
)

const (
	segMagic   = "CHAMWAL1"
	segVersion = 1
	// segHeaderLen is the fixed segment prefix: magic + version + first seq.
	segHeaderLen = len(segMagic) + 4 + 8
	// frameHeaderLen prefixes every record: payload length + payload CRC.
	frameHeaderLen = 8
	// maxRecordBytes bounds one record so a corrupt length field can never
	// drive a huge allocation (64 MiB clears any legal observe batch).
	maxRecordBytes = 64 << 20
	// maxUserLen mirrors the fleet's user-id bound.
	maxUserLen = 255
)

// ErrCorrupt reports mid-segment corruption: a record that fails its CRC (or
// frames impossibly) with valid data after it. Unlike a torn tail this is
// not survivable by truncation — the log's integrity is gone.
var ErrCorrupt = errors.New("replication: observe log corrupt")

// Options sizes a Log. The zero value of every field selects a default.
type Options struct {
	// SegmentBytes rotates to a new segment file once the active one exceeds
	// this size (default 4 MiB).
	SegmentBytes int64
	// SyncEvery fsyncs the active segment after this many appends (default
	// 16; 1 syncs every append). Rotation and Close always sync.
	SyncEvery int
	// StartSeq is the sequence number of the first record when the directory
	// is empty (a standby's log starts at its snapshot cursor). Ignored when
	// the directory already holds records.
	StartSeq uint64
	// Registry receives the log metrics (nil: the process default).
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 16
	}
	if o.Registry == nil {
		o.Registry = obs.Default()
	}
	return o
}

// segment is one on-disk segment file.
type segment struct {
	path  string
	first uint64 // seq of the segment's first record
}

// Log is a durable observe log over one directory. Append, ReadFrom, End and
// Sync are safe for concurrent use; one process must own the directory.
type Log struct {
	dir string
	opt Options
	m   *metrics

	mu       sync.Mutex
	segs     []segment // ascending by first; last is active
	f        *os.File  // active segment, opened for append
	size     int64     // active segment's current size
	next     uint64    // next sequence number to assign
	unsynced int       // appends since the last fsync
}

// Open opens (or creates) the log directory, recovers the last segment —
// truncating a torn tail, failing on mid-segment corruption — and positions
// the log to append the next record.
func Open(dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("replication: wal dir: %w", err)
	}
	l := &Log{dir: dir, opt: opt, m: newMetrics(opt.Registry)}
	if err := l.scanSegments(); err != nil {
		return nil, err
	}
	if len(l.segs) == 0 {
		if err := l.newSegment(opt.StartSeq); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Recover the newest segment: replay its frames to find the end (and the
	// next sequence number), truncating a torn tail in place.
	last := l.segs[len(l.segs)-1]
	end, next, err := recoverSegment(last.path)
	if err != nil {
		return nil, err
	}
	if next == 0 {
		// Empty segment: the next seq is the header's first.
		next = last.first
	}
	f, err := os.OpenFile(last.path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("replication: reopen %s: %w", last.path, err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("replication: seek %s: %w", last.path, err)
	}
	l.f, l.size, l.next = f, end, next
	l.m.segments.Set(float64(len(l.segs)))
	return l, nil
}

// scanSegments lists and orders the directory's segment files.
func (l *Log) scanSegments() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("replication: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
		if err != nil {
			return fmt.Errorf("replication: unparseable segment name %s", name)
		}
		l.segs = append(l.segs, segment{path: filepath.Join(l.dir, name), first: first})
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].first < l.segs[j].first })
	return nil
}

// segName formats a segment file name; fixed-width so lexical order matches
// numeric order.
func segName(first uint64) string { return fmt.Sprintf("wal-%020d.log", first) }

// newSegment creates and activates a fresh segment whose first record will
// carry seq first. The previous active segment (if any) is synced and closed.
func (l *Log) newSegment(first uint64) error {
	if l.f != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("replication: close segment: %w", err)
		}
		l.f = nil
	}
	path := filepath.Join(l.dir, segName(first))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("replication: create segment: %w", err)
	}
	hdr := make([]byte, 0, segHeaderLen)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, segVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, first)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("replication: segment header: %w", err)
	}
	l.segs = append(l.segs, segment{path: path, first: first})
	l.f, l.size, l.next = f, int64(segHeaderLen), first
	l.m.segments.Set(float64(len(l.segs)))
	return nil
}

// Append assigns the next sequence number to r, writes it durably (write(2)
// now, fsync batched) and returns the assigned seq. r.Seq is overwritten.
func (l *Log) Append(r *api.LogRecord) (uint64, error) {
	if len(r.User) > maxUserLen {
		return 0, fmt.Errorf("replication: user id longer than %d bytes", maxUserLen)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, errors.New("replication: log is closed")
	}
	t0 := time.Now()
	r.Seq = l.next
	payload := encodeRecord(r)
	frame := make([]byte, 0, frameHeaderLen+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	if _, err := l.f.Write(frame); err != nil {
		return 0, fmt.Errorf("replication: append seq %d: %w", r.Seq, err)
	}
	l.size += int64(len(frame))
	l.next++
	l.unsynced++
	l.m.appends.Inc()
	l.m.appendBytes.Add(int64(len(frame)))
	if l.unsynced >= l.opt.SyncEvery {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	if l.size >= l.opt.SegmentBytes {
		if err := l.newSegment(l.next); err != nil {
			return 0, err
		}
	}
	l.m.appendSeconds.ObserveSince(t0)
	return r.Seq, nil
}

// Sync flushes all appended records to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.f == nil || l.unsynced == 0 {
		return nil
	}
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("replication: fsync: %w", err)
	}
	l.unsynced = 0
	l.m.fsyncs.Inc()
	l.m.fsyncSeconds.ObserveSince(t0)
	return nil
}

// Dir returns the directory the log lives in.
func (l *Log) Dir() string { return l.dir }

// End returns the log's exclusive end: the sequence number the next Append
// will assign.
func (l *Log) End() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Start returns the sequence number of the oldest record the log holds (the
// first segment's first seq).
func (l *Log) Start() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 {
		return l.next
	}
	return l.segs[0].first
}

// ReadFrom returns up to max records with sequence numbers in [after, End),
// in order. Requesting a cursor older than the log's start is an error (the
// caller needs a fresh snapshot); requesting at or past End returns nil.
func (l *Log) ReadFrom(after uint64, max int) ([]api.LogRecord, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after >= l.next {
		return nil, nil
	}
	if len(l.segs) == 0 || after < l.segs[0].first {
		return nil, fmt.Errorf("replication: cursor %d precedes log start %d", after, l.Startlocked())
	}
	// Sync before reading through a fresh descriptor so the page-cache view
	// is complete (reads go through the same cache, but a zero-length tail
	// race is cheap to rule out under the lock).
	out := make([]api.LogRecord, 0, max)
	// Locate the segment containing `after`: the last segment whose first
	// seq is <= after.
	i := sort.Search(len(l.segs), func(i int) bool { return l.segs[i].first > after })
	for si := i - 1; si < len(l.segs) && len(out) < max; si++ {
		recs, err := readSegment(l.segs[si].path, after, max-len(out))
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
		if len(out) > 0 {
			after = out[len(out)-1].Seq + 1
		}
	}
	return out, nil
}

// Startlocked is Start without re-taking the mutex (callers hold it).
func (l *Log) Startlocked() uint64 {
	if len(l.segs) == 0 {
		return l.next
	}
	return l.segs[0].first
}

// Scan streams every record with seq >= after through fn, in order, without
// materialising the whole suffix (the fleet's per-user rebuild walks the
// full log this way). fn returning false stops the scan early.
func (l *Log) Scan(after uint64, fn func(*api.LogRecord) bool) error {
	const page = 256
	for {
		recs, err := l.ReadFrom(after, page)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			return nil
		}
		for i := range recs {
			if !fn(&recs[i]) {
				return nil
			}
		}
		after = recs[len(recs)-1].Seq + 1
	}
}

// Reset discards every record and restarts the (empty) log at startSeq — the
// standby's bootstrap path: its local log must mirror the snapshot cursor it
// restored, so any stale records from a previous incarnation are dropped.
func (l *Log) Reset(startSeq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("replication: close segment: %w", err)
		}
		l.f = nil
	}
	for _, s := range l.segs {
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("replication: reset: %w", err)
		}
	}
	l.segs, l.size, l.unsynced = nil, 0, 0
	return l.newSegment(startSeq)
}

// Close syncs and closes the active segment. The log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// encodeRecord serialises one record payload:
//
//	uint64 seq
//	uint16 user length, user bytes
//	uint32 batch
//	int32  domain
//	uint32 sample count
//	per sample: uint32 label, uint32 latent length, latent float32 bits
func encodeRecord(r *api.LogRecord) []byte {
	n := 8 + 2 + len(r.User) + 4 + 4 + 4
	for _, s := range r.Samples {
		n += 4 + 4 + 4*len(s.Latent)
	}
	b := make([]byte, 0, n)
	b = binary.LittleEndian.AppendUint64(b, r.Seq)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r.User)))
	b = append(b, r.User...)
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Batch))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(r.Domain)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Samples)))
	for _, s := range r.Samples {
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(s.Label)))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Latent)))
		for _, v := range s.Latent {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
	}
	return b
}

// decodeRecord parses one record payload. Every length is validated against
// the remaining bytes, so hostile or corrupt payloads error instead of
// panicking.
func decodeRecord(b []byte) (api.LogRecord, error) {
	var r api.LogRecord
	rd := byteReader{b: b}
	r.Seq = rd.u64()
	userLen := int(rd.u16())
	user := rd.bytes(userLen)
	r.User = string(user)
	r.Batch = int(int32(rd.u32()))
	r.Domain = int(int32(rd.u32()))
	nSamples := int(rd.u32())
	if rd.err == nil && nSamples > len(rd.b)/8+1 {
		return r, fmt.Errorf("replication: record declares %d samples in %d bytes", nSamples, len(b))
	}
	if rd.err == nil {
		r.Samples = make([]api.LogSample, 0, nSamples)
		for i := 0; i < nSamples; i++ {
			label := int(int32(rd.u32()))
			latLen := int(rd.u32())
			if rd.err == nil && latLen > len(rd.b)/4 {
				return r, fmt.Errorf("replication: sample declares %d floats in %d bytes", latLen, len(rd.b))
			}
			lat := make([]float32, latLen)
			for j := range lat {
				lat[j] = math.Float32frombits(rd.u32())
			}
			r.Samples = append(r.Samples, api.LogSample{Latent: lat, Label: label})
		}
	}
	if rd.err != nil {
		return r, rd.err
	}
	if len(rd.b) != 0 {
		return r, fmt.Errorf("replication: %d trailing bytes in record payload", len(rd.b))
	}
	return r, nil
}

// byteReader is a bounds-checked little-endian cursor; the first short read
// latches err and every later read returns zero.
type byteReader struct {
	b   []byte
	err error
}

func (r *byteReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = fmt.Errorf("replication: record payload truncated (want %d bytes, have %d)", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *byteReader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *byteReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *byteReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *byteReader) bytes(n int) []byte { return r.take(n) }

// recoverSegment scans a segment, validating every frame. It returns the
// byte offset after the last good frame and the sequence number after the
// last good record (0 if the segment holds none). A bad frame at the very
// tail is truncated away (torn write); a bad frame with data after it is
// ErrCorrupt.
func recoverSegment(path string) (end int64, next uint64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("replication: %w", err)
	}
	if len(raw) < segHeaderLen {
		return 0, 0, fmt.Errorf("%w: %s: short header", ErrCorrupt, path)
	}
	if string(raw[:len(segMagic)]) != segMagic {
		return 0, 0, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, path)
	}
	if v := binary.LittleEndian.Uint32(raw[len(segMagic):]); v != segVersion {
		return 0, 0, fmt.Errorf("replication: %s: format version %d, want %d", path, v, segVersion)
	}
	first := binary.LittleEndian.Uint64(raw[len(segMagic)+4:])
	off := int64(segHeaderLen)
	next = 0
	for {
		frameEnd, seq, ok, ferr := checkFrame(raw, off)
		if ferr != nil {
			return 0, 0, fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, path, off, ferr)
		}
		if !ok {
			// Torn tail: drop the partial frame.
			if frameEnd != int64(len(raw)) {
				// checkFrame only reports !ok for tail frames; anything else
				// is a bug guard.
				return 0, 0, fmt.Errorf("%w: %s at offset %d", ErrCorrupt, path, off)
			}
			if err := os.Truncate(path, off); err != nil {
				return 0, 0, fmt.Errorf("replication: truncate torn tail of %s: %w", path, err)
			}
			break
		}
		if next == 0 && seq != first && off == int64(segHeaderLen) {
			return 0, 0, fmt.Errorf("%w: %s: first record seq %d, header says %d", ErrCorrupt, path, seq, first)
		}
		off = frameEnd
		next = seq + 1
		if off == int64(len(raw)) {
			break
		}
	}
	return off, next, nil
}

// checkFrame validates the frame starting at off. It returns the frame's end
// offset and the record's seq when the frame is whole and its payload
// decodes (ok). A frame that is incomplete, CRC-broken or undecodable AND
// extends to end of data reports ok=false with frameEnd=len(raw) (a torn
// tail, survivable); the same damage with bytes after the frame is an error.
func checkFrame(raw []byte, off int64) (frameEnd int64, seq uint64, ok bool, err error) {
	rest := raw[off:]
	if len(rest) < frameHeaderLen {
		return int64(len(raw)), 0, false, nil
	}
	payloadLen := binary.LittleEndian.Uint32(rest)
	if payloadLen > maxRecordBytes {
		// An absurd length field: if nothing but this frame remains, treat as
		// torn; otherwise corrupt.
		return int64(len(raw)), 0, false, nil
	}
	frameLen := int64(frameHeaderLen) + int64(payloadLen)
	if int64(len(rest)) < frameLen {
		return int64(len(raw)), 0, false, nil
	}
	payload := rest[frameHeaderLen:frameLen]
	wantCRC := binary.LittleEndian.Uint32(rest[4:])
	tail := int64(len(rest)) == frameLen
	if crc32.ChecksumIEEE(payload) != wantCRC {
		if tail {
			return int64(len(raw)), 0, false, nil
		}
		return 0, 0, false, fmt.Errorf("CRC mismatch")
	}
	rec, derr := decodeRecord(payload)
	if derr != nil {
		if tail {
			return int64(len(raw)), 0, false, nil
		}
		return 0, 0, false, derr
	}
	return off + frameLen, rec.Seq, true, nil
}

// readSegment returns up to max records with seq >= after from one segment.
// It tolerates a torn tail (stops there) but fails on mid-segment
// corruption, mirroring recoverSegment — reads may hit a segment the active
// writer is mid-append on, and that in-flight frame looks exactly like a
// torn tail.
func readSegment(path string, after uint64, max int) ([]api.LogRecord, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("replication: %w", err)
	}
	if len(raw) < segHeaderLen || string(raw[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("%w: %s: bad header", ErrCorrupt, path)
	}
	var out []api.LogRecord
	off := int64(segHeaderLen)
	for off < int64(len(raw)) && len(out) < max {
		frameEnd, _, ok, ferr := checkFrame(raw, off)
		if ferr != nil {
			return nil, fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, path, off, ferr)
		}
		if !ok {
			break // torn or in-flight tail; the next pull will see it whole
		}
		payload := raw[off+frameHeaderLen : frameEnd]
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return nil, fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, path, off, derr)
		}
		if rec.Seq >= after {
			out = append(out, rec)
		}
		off = frameEnd
	}
	return out, nil
}
