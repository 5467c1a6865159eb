package storage

import (
	"fmt"
	"hash/crc32"

	"repro/internal/cstruct"
	"repro/internal/lwt"
)

// WAL is a write-ahead log over a fixed region of a block Device, with
// group commit: records appended while a barrier write is in flight (or in
// the same instant) coalesce into the next single flush, so N concurrent
// commits cost one device barrier instead of N. Over blkif the flush's
// sector writes additionally merge into one indirect scatter-gather
// request — group commit and request merging compose.
//
// On-device layout: sector base is the header {magic, startSeq, startOff};
// sectors base+1 .. base+sectors hold the record stream. Records carry a
// magic, a CRC and a strictly sequential sequence number, so recovery can
// find the durable tail by scanning: the first record that fails magic,
// CRC or sequence validation marks the torn tail (a crash mid-flush leaves
// a prefix of sectors) and everything after it — including stale bytes
// from before a truncation — is discarded.
type WAL struct {
	s   *lwt.Scheduler
	dev Device

	base    uint64 // header sector; records start at base+1
	sectors int    // record region capacity in sectors

	startSeq uint64 // sequence of the first live record
	startOff int    // byte offset of the first live record in the region
	off      int    // byte offset where the next record lands
	nextSeq  uint64
	tail     []byte // bytes of the current partial trailing sector

	// staged collects encoded records between flushes; a flush gathers tail
	// and staged into flushBuf and writes from there. Both buffers live as
	// long as the log and are reused: the device captures each Write before
	// it returns, and the next flush starts only after this one completed.
	staged   []byte
	flushBuf []byte
	pending  []*lwt.Promise[struct{}]
	// spare is the previous group's waiter slice, handed back empty once its
	// flush completed; the next flush's pending list grows into it.
	spare    []*lwt.Promise[struct{}]
	flushing bool
	flushAt  bool // end-of-instant flush scheduled
	// flushFunc is the deferred flush, built once; writes is flush's list of
	// page writes, reused.
	flushFunc func()
	writes    []lwt.Waiter

	// Stats: Appends counts records, Flushes counts device barriers;
	// Appends - Flushes is the number of commits group commit absorbed.
	Appends, Flushes int
	// GroupedMax is the largest number of records a single flush carried.
	GroupedMax int
}

const (
	walMagic    = 0xA11D // header sector magic (BE16)
	recMagic    = 0xA5C3 // per-record magic (BE16)
	recHdrBytes = 21     // magic(2) kind(1) klen(2) vlen(4) seq(8) crc(4)
	// MaxWALKey and MaxWALVal bound record payloads (and recovery's
	// plausibility check for scanning garbage).
	MaxWALKey = 1024
	MaxWALVal = 64 * 1024
)

// Record is one recovered WAL entry.
type Record struct {
	Seq  uint64
	Kind byte
	Key  []byte
	Val  []byte
}

// NewWAL formats an empty log on dev at [base, base+1+sectors) and resolves
// when the header is durable.
func NewWAL(s *lwt.Scheduler, dev Device, base uint64, sectors int) (*WAL, *lwt.Promise[struct{}]) {
	w := &WAL{s: s, dev: dev, base: base, sectors: sectors, nextSeq: 1, startSeq: 1}
	w.flushFunc = w.deferredFlush
	done := lwt.Map(w.writeHeader(), func(*cstruct.View) struct{} { return struct{}{} })
	return w, done
}

// OpenWAL recovers the log: it reads the header, scans the region for the
// valid record prefix, and resolves with the WAL (positioned to append
// after the last durable record) plus the recovered records in sequence
// order. Recovery is idempotent — re-opening without writes recovers the
// identical records.
func OpenWAL(s *lwt.Scheduler, dev Device, base uint64, sectors int) *lwt.Promise[*WALRecovery] {
	return lwt.Bind(dev.Read(base, 1), func(h *cstruct.View) *lwt.Promise[*WALRecovery] {
		if h.BE16(0) != walMagic {
			h.Release()
			return lwt.FailWith[*WALRecovery](s, fmt.Errorf("wal: bad header magic"))
		}
		w := &WAL{
			s: s, dev: dev, base: base, sectors: sectors,
			startSeq: h.BE64(2),
			startOff: int(h.BE64(10)),
		}
		w.flushFunc = w.deferredFlush
		h.Release()
		return lwt.Map(w.readRegion(), func(region []byte) *WALRecovery {
			recs := scanRecords(region, w.startOff, w.startSeq)
			w.off = w.startOff
			w.nextSeq = w.startSeq
			if n := len(recs); n > 0 {
				last := recs[n-1]
				w.off = last.end
				w.nextSeq = last.Seq + 1
			}
			if t := w.off % SectorSize; t > 0 {
				w.tail = append([]byte(nil), region[w.off-t:w.off]...)
			}
			out := &WALRecovery{W: w}
			for _, r := range recs {
				out.Records = append(out.Records, r.Record)
			}
			return out
		})
	})
}

// WALRecovery is OpenWAL's result: the log plus its surviving records.
type WALRecovery struct {
	W       *WAL
	Records []Record
}

// readRegion reads the whole record region into memory (page at a time).
func (w *WAL) readRegion() *lwt.Promise[[]byte] {
	buf := make([]byte, w.sectors*SectorSize)
	var reads []lwt.Waiter
	for sec := 0; sec < w.sectors; sec += PageSectors {
		n := w.sectors - sec
		if n > PageSectors {
			n = PageSectors
		}
		off := sec * SectorSize
		reads = append(reads, lwt.Map(w.dev.Read(w.base+1+uint64(sec), n), func(v *cstruct.View) struct{} {
			copy(buf[off:], v.Bytes())
			v.Release()
			return struct{}{}
		}))
	}
	return lwt.Map(lwt.Join(w.s, reads...), func(struct{}) []byte { return buf })
}

type scannedRecord struct {
	Record
	end int // byte offset just past this record
}

// scanRecords walks the region from off expecting strictly sequential
// sequence numbers starting at seq; it stops at the first torn, stale or
// garbage record.
func scanRecords(region []byte, off int, seq uint64) []scannedRecord {
	var out []scannedRecord
	for {
		r, end, ok := parseRecord(region, off)
		if !ok || r.Seq != seq {
			return out
		}
		out = append(out, scannedRecord{Record: r, end: end})
		off = end
		seq++
	}
}

func parseRecord(region []byte, off int) (Record, int, bool) {
	if off+recHdrBytes > len(region) {
		return Record{}, 0, false
	}
	v := cstruct.Wrap(region[off:])
	if v.BE16(0) != recMagic {
		return Record{}, 0, false
	}
	kind := v.U8(2)
	klen := int(v.BE16(3))
	vlen := int(v.BE32(5))
	if klen > MaxWALKey || vlen > MaxWALVal || off+recHdrBytes+klen+vlen > len(region) {
		return Record{}, 0, false
	}
	seq := v.BE64(9)
	crc := v.BE32(17)
	body := region[off+2 : off+recHdrBytes-4] // kind..seq
	payload := region[off+recHdrBytes : off+recHdrBytes+klen+vlen]
	sum := crc32.ChecksumIEEE(body)
	sum = crc32.Update(sum, crc32.IEEETable, payload)
	if sum != crc {
		return Record{}, 0, false
	}
	r := Record{
		Seq:  seq,
		Kind: kind,
		Key:  append([]byte(nil), payload[:klen]...),
		Val:  append([]byte(nil), payload[klen:]...),
	}
	return r, off + recHdrBytes + klen + vlen, true
}

// appendRecord encodes one record in place at the end of dst.
func appendRecord(dst []byte, seq uint64, kind byte, key, val []byte) []byte {
	at := len(dst)
	dst = append(dst, make([]byte, recHdrBytes+len(key)+len(val))...)
	buf := dst[at:]
	v := cstruct.Wrap(buf)
	v.PutBE16(0, recMagic)
	v.PutU8(2, kind)
	v.PutBE16(3, uint16(len(key)))
	v.PutBE32(5, uint32(len(val)))
	v.PutBE64(9, seq)
	copy(buf[recHdrBytes:], key)
	copy(buf[recHdrBytes+len(key):], val)
	sum := crc32.ChecksumIEEE(buf[2 : recHdrBytes-4])
	sum = crc32.Update(sum, crc32.IEEETable, buf[recHdrBytes:])
	v.PutBE32(17, sum)
	return dst
}

// Append stages a record and resolves once it is durable on the device.
// Records staged while a flush is in flight ride the next flush together —
// the group commit.
func (w *WAL) Append(kind byte, key, val []byte) *lwt.Promise[struct{}] {
	pr := lwt.NewPromise[struct{}](w.s)
	if len(key) > MaxWALKey || len(val) > MaxWALVal {
		pr.Fail(fmt.Errorf("wal: record payload too large (%d/%d)", len(key), len(val)))
		return pr
	}
	if w.off+len(w.staged)+recHdrBytes+len(key)+len(val) > w.sectors*SectorSize {
		pr.Fail(fmt.Errorf("wal: region full (%d bytes)", w.sectors*SectorSize))
		return pr
	}
	w.staged = appendRecord(w.staged, w.nextSeq, kind, key, val)
	w.nextSeq++
	w.Appends++
	w.pending = append(w.pending, pr)
	w.scheduleFlush()
	return pr
}

// Sync resolves when everything appended so far is durable.
func (w *WAL) Sync() *lwt.Promise[struct{}] {
	if len(w.pending) == 0 && !w.flushing {
		return lwt.Return(w.s, struct{}{})
	}
	pr := lwt.NewPromise[struct{}](w.s)
	w.pending = append(w.pending, pr)
	if len(w.staged) == 0 && !w.flushing {
		// Nothing staged but callers are waiting: treat as an empty flush.
		w.scheduleFlush()
	}
	return pr
}

// scheduleFlush defers the barrier write behind the instant's remaining
// thread work (via the scheduler's ready queue) so all of a burst's
// appends share one flush.
func (w *WAL) scheduleFlush() {
	if w.flushAt || w.flushing {
		return
	}
	w.flushAt = true
	w.s.Defer(w.flushFunc)
}

// deferredFlush is the ready-queue step scheduleFlush queues.
func (w *WAL) deferredFlush() {
	w.flushAt = false
	w.flush()
}

// flush issues one barrier write covering every staged record. The sector
// writes of one flush are issued in the same instant, so over blkif they
// merge into a single device operation.
func (w *WAL) flush() {
	if w.flushing || len(w.pending) == 0 {
		return
	}
	w.flushing = true
	waiters := w.pending
	w.pending, w.spare = w.spare, nil
	w.Flushes++
	if len(waiters) > w.GroupedMax {
		w.GroupedMax = len(waiters)
	}

	// The write starts at the sector containing off and re-covers the
	// partial tail bytes already there.
	startSector := w.base + 1 + uint64((w.off-len(w.tail))/SectorSize)
	buf := append(append(w.flushBuf[:0], w.tail...), w.staged...)
	w.flushBuf = buf
	w.off += len(w.staged)
	w.staged = w.staged[:0]
	ws := w.writes[:0]
	for o := 0; o < len(buf); o += cstruct.PageSize {
		end := o + cstruct.PageSize
		if end > len(buf) {
			end = len(buf)
		}
		ws = append(ws, w.dev.Write(startSector+uint64(o/SectorSize), buf[o:end]))
	}
	w.tail = append(w.tail[:0], buf[len(buf)-w.off%SectorSize:]...)

	done := lwt.Join(w.s, ws...)
	clear(ws)
	w.writes = ws[:0]
	lwt.Always(done, func() {
		w.flushing = false
		if err := done.Failed(); err != nil {
			for _, pr := range waiters {
				pr.Fail(err)
			}
		} else {
			for _, pr := range waiters {
				pr.Resolve(struct{}{})
			}
		}
		clear(waiters)
		w.spare = waiters[:0]
		if len(w.pending) > 0 {
			w.scheduleFlush()
		}
	})
}

// Truncate discards all records appended before this call (they must be
// checkpointed elsewhere): recovery will start after them. When the log is
// quiescent the write offset rewinds to the region start; otherwise the
// head just advances mid-region. Stale bytes left behind are rejected at
// recovery by the sequence check. Resolves when the new header is durable.
func (w *WAL) Truncate() *lwt.Promise[struct{}] {
	w.startSeq = w.nextSeq
	if !w.flushing && len(w.staged) == 0 {
		w.off = 0
		w.tail = w.tail[:0]
	}
	w.startOff = w.off + len(w.staged)
	return lwt.Map(w.writeHeader(), func(*cstruct.View) struct{} { return struct{}{} })
}

// LiveBytes returns the byte length of the un-truncated record stream.
func (w *WAL) LiveBytes() int { return w.off + len(w.staged) - w.startOff }

func (w *WAL) writeHeader() *lwt.Promise[*cstruct.View] {
	h := make([]byte, SectorSize)
	v := cstruct.Wrap(h)
	v.PutBE16(0, walMagic)
	v.PutBE64(2, w.startSeq)
	v.PutBE64(10, uint64(w.startOff))
	return w.dev.Write(w.base, h)
}
