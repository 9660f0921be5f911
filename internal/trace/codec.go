package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"literace/internal/obs"
)

// Binary layout (LTRC2, the current version):
//
//	file   := magic chunk*
//	magic  := "LTRC2\n"
//	chunk  := marker[4] uvarint(tag) uvarint(len) payload[len] crc32le[4]
//	marker := F7 "LT2"
//	tag    := 0            ; metadata trailer (JSON Meta)
//	        | 1            ; checkpoint (JSON Meta snapshot, best effort)
//	        | tid + 2      ; event chunk for thread tid
//	payload (tid chunk)  := uvarint(seq) event*       ; seq is 1,2,3,... per thread
//	payload (meta/ckpt)  := JSON-encoded Meta
//	event  := kind byte, op byte, then per-kind varints:
//	          mem:  pcFunc pcIndex addr mask
//	          sync: pcFunc pcIndex addr counter ts
//	          sched markers reuse the sync layout: addr is the global slice
//	          index, counter is 0, and ts is the virtual instruction clock
//
// The CRC32 (IEEE, little-endian) covers the tag and length varints plus
// the payload, so any corruption inside a chunk is detectable, and the
// marker gives the salvage decoder a resynchronization point after
// corruption. Per-thread sequence numbers make dropped or duplicated
// chunks detectable. Checkpoints carry the run counters accumulated so
// far, so a log truncated by a crash still has usable metadata.
//
// Chunks from the same thread appear in program order; chunks from
// different threads interleave arbitrarily (each thread flushes its own
// buffer, mirroring the paper's per-thread log buffers).

const (
	magic = "LTRC2\n"
	// magicV1 opened LTRC1 logs, the format before chunk markers, CRCs
	// and sequence numbers. Nothing writes or reads it any more; the
	// decoders recognize it only to name it when they reject it.
	magicV1 = "LTRC1\n"

	// tag namespace of LTRC2 chunks.
	tagMeta       = 0
	tagCheckpoint = 1
	tagThreadBase = 2

	// maxChunkLen bounds the declared chunk length so a corrupt uvarint
	// cannot drive an unbounded allocation. The writer never produces
	// chunks anywhere near this size (flushThreshold plus one event).
	maxChunkLen = 1 << 20

	// checkpointInterval is how many encoded bytes may elapse between
	// metadata checkpoints.
	checkpointInterval = 1 << 16
)

// chunkMarker precedes every LTRC2 chunk; the salvage decoder scans for
// it to resynchronize after corruption.
var chunkMarker = [4]byte{0xF7, 'L', 'T', '2'}

// Meta is the run metadata written as the log trailer (and, partially, in
// periodic checkpoint chunks). It carries the counters the evaluation
// needs: total memory operations for effective sampling rates (Table 3),
// non-stack memory instructions for the rare/frequent classification
// (Table 4), and cost-model cycles for the overhead tables (Table 5,
// Figure 6).
type Meta struct {
	Module  string `json:"module"`
	Seed    int64  `json:"seed"`
	Threads int    `json:"threads"`

	Instrs      uint64 `json:"instrs"`       // dynamic instructions executed
	MemOps      uint64 `json:"mem_ops"`      // dynamic data accesses (load/store)
	StackMemOps uint64 `json:"stack_ops"`    // subset of MemOps touching thread stacks
	SyncOps     uint64 `json:"sync_ops"`     // dynamic synchronization operations
	Cycles      uint64 `json:"cycles"`       // virtual cycles including instrumentation cost
	BaseCycles  uint64 `json:"base_cycles"`  // virtual cycles excluding instrumentation cost
	WallNanos   int64  `json:"wall_nanos"`   // wall-clock run time
	LoggedBytes uint64 `json:"logged_bytes"` // encoded log size

	// Samplers holds the mask-bit order: bit i of a memory event's Mask is
	// set when Samplers[i] would have logged the event.
	Samplers []string `json:"samplers"`
	// SampledOps[i] counts memory operations sampler i would have logged.
	SampledOps []uint64 `json:"sampled_ops"`
	// Primary is the sampler that actually controlled instrumentation.
	Primary string `json:"primary"`
}

// EffectiveRate returns sampler i's effective sampling rate: the fraction
// of memory operations it logged (§5.2).
func (m *Meta) EffectiveRate(i int) float64 {
	if m.MemOps == 0 || i >= len(m.SampledOps) {
		return 0
	}
	return float64(m.SampledOps[i]) / float64(m.MemOps)
}

// SamplerIndex returns the mask bit for the named sampler, or -1.
func (m *Meta) SamplerIndex(name string) int {
	for i, s := range m.Samplers {
		if s == name {
			return i
		}
	}
	return -1
}

// Writer encodes events to an underlying io.Writer. Each thread appends to
// its own buffer via a ThreadWriter; buffers flush as chunks under a mutex.
type Writer struct {
	mu      sync.Mutex
	w       *bufio.Writer
	written uint64
	err     error
	threads map[int32]*ThreadWriter
	closed  bool

	lastCkpt   uint64      // written watermark of the last checkpoint
	metaSource func() Meta // optional snapshot provider for checkpoints

	// Telemetry instruments; all nil when observability is disabled.
	obsReg    *obs.Registry
	obsBytes  *obs.Counter // trace.bytes_written
	obsChunks *obs.Counter // trace.chunks_flushed
	obsEvents *obs.Counter // trace.events_appended
}

// flushThreshold is the per-thread buffer size that triggers a chunk flush.
const flushThreshold = 1 << 14

// NewWriter starts a log on w.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	return &Writer{
		w:        bw,
		written:  uint64(len(magic)),
		lastCkpt: uint64(len(magic)),
		threads:  make(map[int32]*ThreadWriter),
	}, nil
}

// SetObs attaches telemetry instruments to the writer: bytes written,
// chunk flushes, events appended, and per-thread flush counters. Call
// before the first Thread call; nil disables (the default).
func (w *Writer) SetObs(r *obs.Registry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.obsReg = r
	w.obsBytes = r.Counter("trace.bytes_written")
	w.obsChunks = r.Counter("trace.chunks_flushed")
	w.obsEvents = r.Counter("trace.events_appended")
	w.obsBytes.Add(w.written) // account for the magic already emitted
}

// SetMetaSource registers a callback that snapshots the run counters
// accumulated so far. The writer invokes it when emitting periodic
// checkpoint chunks, so a log truncated by a crash still carries usable
// metadata. The callback runs under the writer lock and must not call
// back into the Writer. Nil (the default) makes checkpoints carry only
// the writer's own byte count.
func (w *Writer) SetMetaSource(f func() Meta) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.metaSource = f
}

// Thread returns the per-thread writer for tid, creating it on first use.
func (w *Writer) Thread(tid int32) *ThreadWriter {
	w.mu.Lock()
	defer w.mu.Unlock()
	tw := w.threads[tid]
	if tw == nil {
		tw = &ThreadWriter{parent: w, tid: tid, obsEvents: w.obsEvents}
		if w.obsReg != nil {
			tw.obsFlushes = w.obsReg.Counter(fmt.Sprintf("trace.thread_flushes.t%d", tid))
		}
		w.threads[tid] = tw
	}
	return tw
}

// flushChunk writes one chunk and, after thread chunks, a metadata
// checkpoint when enough bytes have elapsed; callers hold no locks.
func (w *Writer) flushChunk(tag uint64, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.flushChunkLocked(tag, payload); err != nil {
		return err
	}
	if tag >= tagThreadBase && w.written-w.lastCkpt >= checkpointInterval {
		return w.writeCheckpointLocked()
	}
	return nil
}

func (w *Writer) flushChunkLocked(tag uint64, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	var hdr [4 + 2*binary.MaxVarintLen64]byte
	copy(hdr[:4], chunkMarker[:])
	n := 4 + binary.PutUvarint(hdr[4:], tag)
	n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
	crc := crc32.ChecksumIEEE(hdr[4:n])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc)
	if _, err := w.w.Write(hdr[:n]); err != nil {
		w.err = fmt.Errorf("trace: %w", err)
		return w.err
	}
	if _, err := w.w.Write(payload); err != nil {
		w.err = fmt.Errorf("trace: %w", err)
		return w.err
	}
	if _, err := w.w.Write(crcb[:]); err != nil {
		w.err = fmt.Errorf("trace: %w", err)
		return w.err
	}
	w.written += uint64(n + len(payload) + 4)
	w.obsBytes.Add(uint64(n + len(payload) + 4))
	w.obsChunks.Inc()
	return nil
}

// writeCheckpointLocked emits a tag-1 checkpoint chunk carrying the best
// counter snapshot available.
func (w *Writer) writeCheckpointLocked() error {
	var meta Meta
	if w.metaSource != nil {
		meta = w.metaSource()
	}
	meta.LoggedBytes = w.written
	payload, err := json.Marshal(&meta)
	if err != nil {
		return fmt.Errorf("trace: encoding checkpoint: %w", err)
	}
	if err := w.flushChunkLocked(tagCheckpoint, payload); err != nil {
		return err
	}
	w.lastCkpt = w.written
	return nil
}

// Close flushes all thread buffers, writes the metadata trailer, and
// flushes the underlying writer. meta.LoggedBytes is filled in by Close.
func (w *Writer) Close(meta Meta) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return errors.New("trace: writer already closed")
	}
	w.closed = true
	tws := make([]*ThreadWriter, 0, len(w.threads))
	for _, tw := range w.threads {
		tws = append(tws, tw)
	}
	w.mu.Unlock()
	// Flush in thread order, not map order: the final chunks' positions
	// are part of the log's canonical arrival order (replay delivers by
	// chunk order), so a deterministic execution must close into a log
	// with a deterministic chunk sequence.
	sort.Slice(tws, func(i, j int) bool { return tws[i].tid < tws[j].tid })

	for _, tw := range tws {
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	meta.LoggedBytes = w.written
	payload, err := json.Marshal(&meta)
	if err != nil {
		return fmt.Errorf("trace: encoding meta: %w", err)
	}
	if err := w.flushChunkLocked(tagMeta, payload); err != nil {
		return err
	}
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}

// BytesWritten returns the number of encoded bytes emitted so far.
func (w *Writer) BytesWritten() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}

// ThreadWriter buffers one thread's events.
type ThreadWriter struct {
	parent *Writer
	tid    int32
	buf    []byte
	count  uint64
	seq    uint64 // sequence number of the last flushed chunk

	obsEvents  *obs.Counter // shared trace.events_appended
	obsFlushes *obs.Counter // trace.thread_flushes.t<tid>
}

// Append encodes one event into the thread buffer.
func (tw *ThreadWriter) Append(e Event) error {
	tw.buf = appendEvent(tw.buf, e)
	tw.count++
	tw.obsEvents.Inc()
	if len(tw.buf) >= flushThreshold {
		return tw.Flush()
	}
	return nil
}

// Count returns the number of events appended to this thread.
func (tw *ThreadWriter) Count() uint64 { return tw.count }

// Flush writes the buffered events as one chunk, prefixed with this
// thread's next sequence number.
func (tw *ThreadWriter) Flush() error {
	if len(tw.buf) == 0 {
		return nil
	}
	tw.seq++
	payload := make([]byte, 0, binary.MaxVarintLen64+len(tw.buf))
	payload = binary.AppendUvarint(payload, tw.seq)
	payload = append(payload, tw.buf...)
	err := tw.parent.flushChunk(uint64(uint32(tw.tid))+tagThreadBase, payload)
	tw.buf = tw.buf[:0]
	tw.obsFlushes.Inc()
	return err
}

func appendEvent(buf []byte, e Event) []byte {
	buf = append(buf, byte(e.Kind), byte(e.Op))
	buf = binary.AppendUvarint(buf, uint64(uint32(e.PC.Func)))
	buf = binary.AppendUvarint(buf, uint64(uint32(e.PC.Index)))
	buf = binary.AppendUvarint(buf, e.Addr)
	if e.Kind.IsMem() {
		buf = binary.AppendUvarint(buf, uint64(e.Mask))
	} else {
		buf = append(buf, e.Counter)
		buf = binary.AppendUvarint(buf, e.TS)
	}
	return buf
}

// Log is a fully decoded trace: per-thread event sequences in program
// order plus run metadata.
type Log struct {
	Meta    Meta
	Threads map[int32][]Event

	// Degraded, when non-nil, marks the per-thread event index from which
	// the stream follows a salvage loss (a dropped chunk or sequence gap):
	// orderings derived from events at or past that index are suspect.
	// ReadAll always leaves it nil; Salvage fills it in.
	Degraded map[int32]int

	// ChunkOrder lists the accepted thread chunks in the byte order they
	// appear in the encoded log: entry i says "the next N events of thread
	// TID". Replay uses it as the canonical arrival order, which is what
	// lets the online pipeline (fed chunk by chunk) and a batch pass over
	// the same bytes reach identical results. Nil for hand-built logs;
	// replay then treats each per-thread stream as one batch.
	ChunkOrder []ChunkRef
}

// ChunkRef locates one thread chunk within Log.ChunkOrder: the next N
// events of thread TID.
type ChunkRef struct {
	TID int32
	N   int
}

// NumEvents returns the total event count across threads.
func (l *Log) NumEvents() int {
	n := 0
	for _, evs := range l.Threads {
		n += len(evs)
	}
	return n
}

// TIDs returns the thread ids present in the log, ascending.
func (l *Log) TIDs() []int32 {
	out := make([]int32, 0, len(l.Threads))
	for tid := range l.Threads {
		out = append(out, tid)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ReadAll decodes a complete LTRC2 log from r, with every CRC, sequence
// number, and the metadata trailer verified. Any truncation, corruption,
// or gap is an error; use Salvage to extract a best-effort log from
// damaged input.
//
// The whole input is read into one buffer first. A sequential pass over
// the chunk headers then verifies the framing and lists the thread
// chunks, the decode stage decodes each thread into a single slice
// allocated once, in parallel across threads, and a last pass in byte
// order builds ChunkOrder. When several chunks hold undecodable events,
// the error returned is the one of the chunk that comes first in the
// input, whichever thread it belongs to.
func ReadAll(r io.Reader) (*Log, error) {
	data, err := readInput(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading log: %w", err)
	}
	switch {
	case len(data) < len(magic):
		return nil, fmt.Errorf("trace: reading magic: %w", io.ErrUnexpectedEOF)
	case !bytes.HasPrefix(data, []byte(magic)):
		return nil, fmt.Errorf("trace: %w", errBadMagic(data))
	}
	log := &Log{}
	chunks, err := scanV2(data, log)
	if err != nil {
		return nil, err
	}
	decodeThreads(log, chunks)
	for _, c := range chunks {
		if c.err != nil {
			return nil, c.err
		}
	}
	return log, nil
}

// errBadMagic describes input that does not begin with the LTRC2 magic.
// LTRC1 input is named as such: it is a LiteRace log, just one in a
// format no decoder reads any more.
func errBadMagic(data []byte) error {
	if bytes.HasPrefix(data, []byte(magicV1)) {
		return errors.New("bad magic: LTRC1 logs (no chunk markers or CRCs) are no longer read, only LTRC2")
	}
	return fmt.Errorf("bad magic %q", data[:min(len(data), len(magic))])
}

// readInput reads all of r. When r reports its size — Len() on an
// in-memory reader, Stat() on a file — the buffer is allocated once at
// that size (plus one byte, so the final EOF read needs no growth).
func readInput(r io.Reader) ([]byte, error) {
	size := 512
	switch v := r.(type) {
	case interface{ Len() int }:
		size = v.Len() + 1
	case *os.File:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() && fi.Size() < math.MaxInt {
			size = int(fi.Size()) + 1
		}
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// threadChunk is one accepted thread chunk: its event payload, listed in
// byte order by a scan pass (ReadAll's scanV2 or Salvage's resyncing
// scan), and what the decode pass made of it.
type threadChunk struct {
	tid     int32
	payload []byte

	n        int   // events decoded
	consumed int   // payload bytes those events occupy
	err      error // why decoding stopped before the end of the payload
}

// scanV2 strictly verifies the LTRC2 chunk stream in data — markers,
// lengths, CRCs, sequence numbers, metadata — and returns the thread
// chunks in byte order.
func scanV2(data []byte, log *Log) ([]threadChunk, error) {
	var chunks []threadChunk
	sawMeta := false
	lastSeq := make(map[int32]uint64)
	for off := len(magic); off < len(data); {
		if !bytes.HasPrefix(data[off:], chunkMarker[:]) {
			return nil, fmt.Errorf("trace: bad chunk marker at offset %d", off)
		}
		tag, payload, end, _, err := parseChunkV2(data, off)
		if err != nil {
			return nil, fmt.Errorf("trace: chunk at offset %d: %w", off, err)
		}
		off = end
		switch {
		case tag == tagMeta:
			if err := json.Unmarshal(payload, &log.Meta); err != nil {
				return nil, fmt.Errorf("trace: decoding meta: %w", err)
			}
			sawMeta = true
		case tag == tagCheckpoint:
			// Checkpoints only matter for salvage; a complete log carries
			// its trailer, so validate the JSON and move on.
			var ckpt Meta
			if err := json.Unmarshal(payload, &ckpt); err != nil {
				return nil, fmt.Errorf("trace: decoding checkpoint: %w", err)
			}
		default:
			tid := int32(uint32(tag - tagThreadBase))
			seq, rest, err := takeUvarint(payload)
			if err != nil {
				return nil, fmt.Errorf("trace: thread %d chunk sequence: %w", tid, err)
			}
			if seq != lastSeq[tid]+1 {
				return nil, fmt.Errorf("trace: thread %d chunk sequence gap (have %d, want %d)",
					tid, seq, lastSeq[tid]+1)
			}
			lastSeq[tid] = seq
			chunks = append(chunks, threadChunk{tid: tid, payload: rest})
		}
	}
	if !sawMeta {
		return nil, errors.New("trace: truncated log: no metadata trailer")
	}
	return chunks, nil
}

// chunkCRC computes the CRC an LTRC2 chunk must carry: IEEE CRC32 over
// the (minimally encoded) tag and length varints plus the payload.
func chunkCRC(tag uint64, payload []byte) uint32 {
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], tag)
	n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
	crc := crc32.ChecksumIEEE(hdr[:n])
	return crc32.Update(crc, crc32.IEEETable, payload)
}

// minEventBytes is the least number of bytes below 0x80 in an encoded
// event: kind, op, and the last byte of each of at least four varints
// (three for PC and address, then the mask, or the timestamp after the
// counter byte). A payload holding n such bytes therefore holds at most
// n/minEventBytes events.
const minEventBytes = 6

// decodeThreads is the decode pass of the decode stage shared by ReadAll
// and Salvage. It decodes every chunk into log.Threads, records each
// chunk's n, consumed and err, and then lists the chunks that yielded
// events in log.ChunkOrder, in byte order. Workers, min(GOMAXPROCS,
// threads) of them, take whole threads, largest first; each decodes its
// thread's chunks in order into one slice allocated once with room for
// the most events the payloads could hold, so appending never
// reallocates. A chunk that fails to decode keeps its prefix, and the
// thread's later chunks still decode: what an error means is for the
// caller's finishing pass to decide.
func decodeThreads(log *Log, chunks []threadChunk) {
	var threads []decodeThread
	at := make(map[int32]int)
	for i, c := range chunks {
		t, ok := at[c.tid]
		if !ok {
			t = len(threads)
			at[c.tid] = t
			threads = append(threads, decodeThread{tid: c.tid})
		}
		threads[t].chunks = append(threads[t].chunks, i)
		threads[t].bytes += len(c.payload)
	}
	sort.Slice(threads, func(i, j int) bool { return threads[i].bytes > threads[j].bytes })

	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(threads); i = int(next.Add(1)) - 1 {
			threads[i].decode(chunks)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(threads)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	log.Threads = make(map[int32][]Event, len(threads))
	for _, t := range threads {
		log.Threads[t.tid] = t.evs
	}
	for _, c := range chunks {
		if c.n > 0 {
			log.ChunkOrder = append(log.ChunkOrder, ChunkRef{TID: c.tid, N: c.n})
		}
	}
}

// decodeThread is one thread's share of the decode pass.
type decodeThread struct {
	tid    int32
	chunks []int // indices into the chunk list, in byte order
	bytes  int   // payload bytes, which rank threads for the workers
	evs    []Event
}

func (t *decodeThread) decode(chunks []threadChunk) {
	low := 0
	for _, i := range t.chunks {
		low += lowBytes(chunks[i].payload)
	}
	evs := make([]Event, 0, low/minEventBytes)
	for _, i := range t.chunks {
		c := &chunks[i]
		n0 := len(evs)
		evs, c.consumed, c.err = appendEvents(evs, c.tid, c.payload)
		c.n = len(evs) - n0
	}
	t.evs = evs
}

// lowBytes counts the bytes of b below 0x80, eight at a time.
func lowBytes(b []byte) int {
	n := len(b)
	for ; len(b) >= 8; b = b[8:] {
		n -= bits.OnesCount64(binary.LittleEndian.Uint64(b) & 0x8080808080808080)
	}
	for _, c := range b {
		if c >= 0x80 {
			n--
		}
	}
	return n
}

// decodeEventsPrefix decodes as many complete events as payload holds
// into a fresh slice, sized like the decode pass's; see appendEvents.
func decodeEventsPrefix(tid int32, payload []byte) ([]Event, int, error) {
	return appendEvents(make([]Event, 0, lowBytes(payload)/minEventBytes), tid, payload)
}

// appendEvents decodes as many complete events as payload holds onto
// dst, returning the extended slice alongside the number of bytes
// consumed. A decode failure returns dst with the events decoded so far,
// the offset of the bad event, and the error; the salvage decoder keeps
// the prefix.
func appendEvents(dst []Event, tid int32, payload []byte) ([]Event, int, error) {
	total := len(payload)
	for len(payload) > 0 {
		consumed := total - len(payload)
		if len(payload) < 2 {
			return dst, consumed, errors.New("trace: truncated event header")
		}
		e := Event{Kind: Kind(payload[0]), Op: SyncOp(payload[1]), TID: tid}
		if e.Kind >= numKinds {
			return dst, consumed, fmt.Errorf("trace: bad event kind %d", e.Kind)
		}
		if e.Op >= numSyncOps {
			return dst, consumed, fmt.Errorf("trace: bad sync op %d", e.Op)
		}
		rest := payload[2:]
		var err error
		var v uint64
		if v, rest, err = takeUvarint(rest); err != nil {
			return dst, consumed, err
		}
		e.PC.Func = int32(uint32(v))
		if v, rest, err = takeUvarint(rest); err != nil {
			return dst, consumed, err
		}
		e.PC.Index = int32(uint32(v))
		if e.Addr, rest, err = takeUvarint(rest); err != nil {
			return dst, consumed, err
		}
		if e.Kind.IsMem() {
			if v, rest, err = takeUvarint(rest); err != nil {
				return dst, consumed, err
			}
			e.Mask = uint32(v)
		} else {
			if len(rest) < 1 {
				return dst, consumed, errors.New("trace: truncated sync event")
			}
			e.Counter = rest[0]
			rest = rest[1:]
			if e.TS, rest, err = takeUvarint(rest); err != nil {
				return dst, consumed, err
			}
		}
		payload = rest
		dst = append(dst, e)
	}
	return dst, total, nil
}

func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errors.New("trace: truncated varint")
	}
	return v, b[n:], nil
}
