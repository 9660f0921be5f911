package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// Stream is an incremental LTRC2 decoder: feed it the encoded log in
// arbitrary pieces (tailing a growing file, reading a socket) and it
// emits each accepted thread chunk as soon as the bytes for it are
// complete. It applies exactly the salvage decoder's recovery rules —
// marker resynchronization after corruption, CRC verification, duplicate
// drop, sequence-gap accounting, checkpoint metadata fallback — so that
// feeding any byte string through Feed+Finish accepts precisely the
// chunks Salvage would accept from the same bytes, with the same
// SalvageReport accounting. Memory stays bounded by the largest pending
// chunk (maxChunkLen) plus one fed piece, regardless of input size: the
// unconsumed bytes live in one backing store that Feed compacts and
// reuses instead of reallocating.
//
// The one thing an online decoder cannot know is whether missing bytes
// are still in flight: an incomplete chunk at the end of the buffer makes
// Feed wait for more input, and only Finish — the caller's assertion that
// the input is over — applies the salvage decoder's truncated-tail rules
// to whatever remains.
type Stream struct {
	// emit receives each accepted thread chunk in byte order: the chunk's
	// decoded events and whether the thread's stream is suspect at this
	// point (it follows a salvage loss — a dropped chunk or sequence gap —
	// so orderings derived from these events are no longer trustworthy).
	emit func(tid int32, events []Event, suspect bool)

	buf   []byte // unconsumed input, a window of store
	store []byte // backing array reused across feeds
	base  int64  // absolute offset of buf[0] in the full input

	magicDone bool
	finished  bool
	err       error // sticky Feed error
	finErr    error

	// garbage tracks an active resynchronization run: bytes are being
	// discarded while scanning for the next chunk marker. garbageTrunc
	// distinguishes a run that began at a chunk boundary (salvage flags
	// the tail as truncated if it never resynchronizes) from one that
	// began inside a corrupt chunk (salvage silently skips it).
	garbage      bool
	garbageTrunc bool
	garbageStart int64

	lastSeq map[int32]uint64
	suspect map[int32]bool

	meta    Meta
	sawMeta bool
	ckpt    *Meta
	ckptAt  int64

	rep *SalvageReport
}

// NewStream returns an incremental decoder delivering accepted thread
// chunks to emit (which may be nil to decode for the report alone).
func NewStream(emit func(tid int32, events []Event, suspect bool)) *Stream {
	return &Stream{
		emit:    emit,
		lastSeq: make(map[int32]uint64),
		suspect: make(map[int32]bool),
		rep: &SalvageReport{
			Format:     "LTRC2",
			MetaSource: "none",
		},
	}
}

// Feed appends p to the stream and decodes every chunk that is now
// complete, invoking emit for each accepted thread chunk. An incomplete
// chunk at the end of the buffer is kept for the next Feed. The error is
// non-nil only when the input is not an LTRC2 log at all; corruption
// within the stream is recovered from and accounted, never fatal.
func (s *Stream) Feed(p []byte) error {
	if s.finished {
		return errors.New("trace: stream: feed after finish")
	}
	if s.err != nil {
		return s.err
	}
	s.rep.TotalBytes += int64(len(p))
	if len(s.buf)+len(p) > cap(s.buf) {
		// p does not fit after buf: slide the unconsumed bytes to the
		// front of the store first, so the store only grows when they and
		// p together outgrow all of it.
		n := copy(s.store[:cap(s.store)], s.buf)
		s.buf = append(s.store[:n], p...)
		s.store = s.buf[:0]
	} else {
		s.buf = append(s.buf, p...)
	}
	if !s.magicDone {
		// Reject as soon as the prefix can no longer extend to a magic.
		if !bytes.HasPrefix(s.buf, []byte(magic)) && !bytes.HasPrefix([]byte(magic), s.buf) {
			s.err = fmt.Errorf("trace: stream: %w", errBadMagic(s.buf))
			return s.err
		}
		if len(s.buf) < len(magic) {
			return nil
		}
		s.magicDone = true
		s.rep.MagicBytes = int64(len(magic))
		s.consume(len(magic))
	}
	s.parse(false)
	return nil
}

// Finish declares the input complete: the remaining buffer is decoded
// under the salvage decoder's end-of-input rules (a chunk cut short is
// dropped and the tail flagged truncated) and the metadata source is
// resolved. The report remains readable afterwards; further Feeds error.
func (s *Stream) Finish() (*SalvageReport, error) {
	if s.finished {
		return s.rep, s.finErr
	}
	s.finished = true
	if s.err != nil {
		s.finErr = s.err
		return s.rep, s.finErr
	}
	if !s.magicDone {
		// A producer that connected and died before completing the
		// 6-byte header left nothing decodable: zero bytes, or a proper
		// prefix of the magic (anything else already made Feed error).
		// There are no chunks to salvage and no tail to truncate, so
		// Finish succeeds with the bytes accounted as dropped instead of
		// inventing a torn-tail failure.
		if n := len(s.buf); n > 0 {
			s.drop(n)
		}
		return s.rep, nil
	}
	s.parse(true)
	switch {
	case s.sawMeta:
		s.rep.MetaSource = "trailer"
	case s.ckpt != nil:
		s.meta = *s.ckpt
		s.rep.MetaSource = "checkpoint"
		s.rep.CheckpointAt = s.ckptAt
	}
	return s.rep, nil
}

// Report returns the live accounting so far; before Finish the
// truncation and metadata-source fields are still provisional.
func (s *Stream) Report() *SalvageReport { return s.rep }

// Complete reports whether the metadata trailer has been decoded — the
// writer's Close ran, so no more chunks are coming.
func (s *Stream) Complete() bool { return s.sawMeta }

// Meta returns the best run metadata available: the trailer once
// Complete, otherwise (after Finish) the last checkpoint if any.
func (s *Stream) Meta() Meta { return s.meta }

// Buffered returns the number of bytes held waiting for a chunk to
// complete.
func (s *Stream) Buffered() int { return len(s.buf) }

func (s *Stream) consume(n int) {
	s.base += int64(n)
	s.buf = s.buf[n:]
	if len(s.buf) == 0 {
		s.buf = s.store[:0]
	}
}

func (s *Stream) drop(n int) {
	if n > 0 {
		s.rep.BytesDropped += int64(n)
	}
	s.consume(n)
}

func (s *Stream) truncateAt(at int64) {
	s.rep.Truncated = true
	if s.rep.TruncatedAt == 0 {
		s.rep.TruncatedAt = at
	}
}

func (s *Stream) markSuspect(tid int32) { s.suspect[tid] = true }

// parse consumes every decodable chunk at the head of the buffer. With
// final unset it stops at the first chunk still awaiting bytes; with
// final set it applies the salvage end-of-input rules instead.
func (s *Stream) parse(final bool) {
	if final && len(s.buf) == 0 && s.garbage {
		// A garbage run consumed the rest of the input in earlier feeds;
		// the input ending here makes it the truncated tail.
		if s.garbageTrunc {
			s.truncateAt(s.garbageStart)
		}
		s.garbage = false
		return
	}
	for len(s.buf) > 0 {
		idx := bytes.Index(s.buf, chunkMarker[:])
		if idx != 0 {
			// Garbage (or a partial marker) at the head: resynchronize.
			if !s.garbage {
				// Entered from a chunk boundary; salvage flags the tail
				// truncated if no marker ever follows.
				s.garbage, s.garbageTrunc, s.garbageStart = true, true, s.base
			}
			if idx > 0 {
				s.drop(idx)
				s.garbage = false
				continue
			}
			// No full marker buffered yet.
			if final {
				if s.garbageTrunc {
					s.truncateAt(s.garbageStart)
				}
				s.drop(len(s.buf))
				s.garbage = false
				return
			}
			keep := markerPrefixLen(s.buf)
			s.drop(len(s.buf) - keep)
			return
		}
		s.garbage = false

		tag, payload, end, crcOK, err := parseChunkV2(s.buf, 0)
		if err != nil {
			if errors.Is(err, errTruncatedChunk) {
				if !final {
					// The chunk's bytes have not all arrived; wait.
					return
				}
				// Mirror salvage: a bit flip in a length field can fake
				// truncation, so look for a later marker before concluding
				// the log just ends here.
				if next := bytes.Index(s.buf[1:], chunkMarker[:]); next >= 0 {
					s.rep.ChunksDropped++
					if tag >= tagThreadBase {
						tid := int32(uint32(tag - tagThreadBase))
						s.rep.thread(tid).DroppedChunks++
						s.markSuspect(tid)
					}
					s.drop(1 + next)
					continue
				}
				s.truncateAt(s.base)
				s.drop(len(s.buf))
				return
			}
			// In-place corruption: drop the chunk (or the bytes that
			// pretended to be one) and resynchronize on the next marker.
			s.rep.ChunksDropped++
			if !crcOK && end > 0 {
				s.rep.CRCFailures++
			}
			if tag >= tagThreadBase {
				tid := int32(uint32(tag - tagThreadBase))
				tl := s.rep.thread(tid)
				tl.DroppedChunks++
				tl.DroppedBytes += int64(len(payload))
				s.markSuspect(tid)
			}
			if next := bytes.Index(s.buf[1:], chunkMarker[:]); next >= 0 {
				s.drop(1 + next)
				continue
			}
			// Skip silently to end of input, like salvage's corrupt-chunk
			// path (which does not flag truncation).
			s.garbage, s.garbageTrunc, s.garbageStart = true, false, s.base
			if final {
				s.drop(len(s.buf))
				s.garbage = false
				return
			}
			keep := markerPrefixLen(s.buf)
			s.drop(len(s.buf) - keep)
			return
		}

		// A well-formed chunk.
		switch {
		case tag == tagMeta:
			if jerr := json.Unmarshal(payload, &s.meta); jerr != nil {
				s.rep.ChunksDropped++
				s.rep.BytesDropped += int64(end)
			} else {
				s.sawMeta = true
				s.rep.ChunksOK++
				s.rep.BytesOK += int64(end)
			}
		case tag == tagCheckpoint:
			var m Meta
			if jerr := json.Unmarshal(payload, &m); jerr != nil {
				s.rep.ChunksDropped++
				s.rep.BytesDropped += int64(end)
			} else {
				s.ckpt, s.ckptAt = &m, s.base
				s.rep.ChunksOK++
				s.rep.BytesOK += int64(end)
			}
		default:
			tid := int32(uint32(tag - tagThreadBase))
			tl := s.rep.thread(tid)
			seq, rest, serr := takeUvarint(payload)
			if serr != nil {
				s.rep.ChunksDropped++
				tl.DroppedChunks++
				tl.DroppedBytes += int64(len(payload))
				s.markSuspect(tid)
				s.drop(end)
				continue
			}
			if seq <= s.lastSeq[tid] {
				// Duplicate (or replayed) chunk: already in the stream.
				s.rep.DuplicateChunks++
				s.drop(end)
				continue
			}
			if gap := seq - s.lastSeq[tid] - 1; gap > 0 {
				tl.SeqGaps += gap
				s.rep.SeqGaps += gap
				s.markSuspect(tid)
			}
			s.lastSeq[tid] = seq
			evs, n, derr := decodeEventsPrefix(tid, rest)
			tl.EventsSalvaged += len(evs)
			s.rep.EventsSalvaged += len(evs)
			suspect := s.suspect[tid]
			if derr != nil {
				// CRC-valid but undecodable tail: keep the prefix, mark
				// the thread suspect from here on.
				tl.DroppedBytes += int64(len(rest) - n)
				s.markSuspect(tid)
				s.rep.BytesDropped += int64(len(rest) - n)
				s.rep.BytesOK += int64(end) - int64(len(rest)-n)
			} else {
				s.rep.BytesOK += int64(end)
			}
			s.rep.ChunksOK++
			if len(evs) > 0 && s.emit != nil {
				s.emit(tid, evs, suspect)
			}
		}
		s.consume(end)
	}
}

// markerPrefixLen returns the length of the longest proper prefix of the
// chunk marker that is a suffix of b — the bytes a resynchronizing
// stream must keep in case the marker completes in the next feed.
func markerPrefixLen(b []byte) int {
	for k := len(chunkMarker) - 1; k > 0; k-- {
		if len(b) >= k && bytes.Equal(b[len(b)-k:], chunkMarker[:k]) {
			return k
		}
	}
	return 0
}
