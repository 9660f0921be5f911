package hb

import (
	"errors"
	"fmt"

	"literace/internal/obs"
	"literace/internal/trace"
)

// Misuse guards: a Merger is single-shot. Feeding chunks into a merge
// that already drained would silently deliver them out of the canonical
// order (the counters have been fast-forwarded), so both misuses are
// errors instead of corruption.
var (
	// ErrAddAfterFinish is returned by Add once Finish has run.
	ErrAddAfterFinish = errors.New("hb: merger: Add after Finish")
	// ErrDoubleFinish is returned by a second Finish call.
	ErrDoubleFinish = errors.New("hb: merger: Finish called twice")
)

// Merger is the incremental ready-queue merge engine behind Replay: it
// reconstructs a legal global order from per-thread event streams that
// arrive piece by piece. Batch replay feeds it the log's chunks in byte
// order (trace.Log.ChunkOrder); the online pipeline feeds it chunks as
// the decoder accepts them. Both walk the same code over the same chunk
// sequence, which is what makes streaming detection results identical to
// a batch pass over the same bytes.
//
// Usage: Add each chunk, Pump after every Add (delivery order is defined
// as "drain everything that becomes ready after each chunk", so skipping
// a Pump changes the canonical order), then Finish once the input is
// over. In strict mode (MergerOptions.Degraded nil) a log that cannot
// drain is an error; in degraded mode Finish fast-forwards stuck
// timestamp counters and accounts every weakened ordering.
type Merger struct {
	deg       *Degradation
	onDegrade func()
	degraded  bool

	queues []*mergeQueue // ascending tid
	byTID  map[int32]*mergeQueue
	next   [trace.NumCounters]uint64

	remaining  int
	backlogHWM int
	delivered  uint64
	nStalls    uint64
	finished   bool

	stalls, rounds, skips *obs.Counter
}

// mergeQueue is one thread's pending stream: read-only views of the
// chunks that have arrived but not yet been delivered. evs is the chunk
// being drained; later chunks wait in more[head:], in arrival order. A
// queue whose evs is empty holds nothing.
type mergeQueue struct {
	tid         int32
	evs         []trace.Event
	pos         int
	more        [][]trace.Event
	head        int
	taken       uint64 // events delivered from chunks before evs
	added       uint64 // events ever added to the queue
	suspectFrom uint64 // absolute per-thread index of the first suspect event
	hasSuspect  bool
}

// push queues a non-empty chunk view. A chunk that continues the last
// queued view in memory — batch replay's consecutive chunks of one
// decoded thread slice — extends that view instead of taking a FIFO
// slot, so queued views cost O(threads) rather than O(chunks).
func (q *mergeQueue) push(evs []trace.Event) {
	q.added += uint64(len(evs))
	if len(q.evs) == 0 {
		q.evs, q.pos = evs, 0
		return
	}
	tail := &q.evs
	if q.head < len(q.more) {
		tail = &q.more[len(q.more)-1]
	}
	if n := len(*tail); cap(*tail)-n >= len(evs) && &(*tail)[:n+1][n] == &evs[0] {
		*tail = (*tail)[:n+len(evs)]
		return
	}
	q.more = append(q.more, evs)
}

// advance moves past the fully delivered current chunk to the next
// queued one, releasing the view so its events can be collected.
func (q *mergeQueue) advance() {
	q.taken += uint64(len(q.evs))
	q.evs, q.pos = nil, 0
	if q.head == len(q.more) {
		return
	}
	q.evs = q.more[q.head]
	q.more[q.head] = nil
	q.head++
	if q.head == len(q.more) {
		// The FIFO drained: reuse its capacity for later chunks.
		q.more, q.head = q.more[:0], 0
	}
}

// MergerOptions configures a Merger.
type MergerOptions struct {
	// Obs, when non-nil, counts merge rounds (hb.replay_rounds),
	// ready-queue stalls (hb.replay_stalls), and degraded skips
	// (hb.degraded_skips).
	Obs *obs.Registry
	// Degraded, when non-nil, switches the merger to degraded mode:
	// orderings the input cannot support are weakened instead of
	// reported as errors, with the weakenings accounted here.
	Degraded *Degradation
	// OnDegrade, when non-nil, fires before the first event whose
	// ordering was weakened (see ReplayDegraded).
	OnDegrade func()
}

// NewMerger returns an empty merge engine.
func NewMerger(opts MergerOptions) *Merger {
	m := &Merger{
		deg:       opts.Degraded,
		onDegrade: opts.OnDegrade,
		byTID:     make(map[int32]*mergeQueue),
	}
	if opts.Obs != nil {
		m.stalls = opts.Obs.Counter("hb.replay_stalls")
		m.rounds = opts.Obs.Counter("hb.replay_rounds")
		m.skips = opts.Obs.Counter("hb.degraded_skips")
	}
	for i := range m.next {
		m.next[i] = 1
	}
	return m
}

func (m *Merger) queue(tid int32) *mergeQueue {
	q := m.byTID[tid]
	if q != nil {
		return q
	}
	q = &mergeQueue{tid: tid}
	m.byTID[tid] = q
	// Keep queues sorted by tid: the merge visits threads in ascending
	// tid order each round, matching the original batch replay.
	i := len(m.queues)
	m.queues = append(m.queues, q)
	for i > 0 && m.queues[i-1].tid > tid {
		m.queues[i], m.queues[i-1] = m.queues[i-1], m.queues[i]
		i--
	}
	return q
}

// Add queues one chunk of a thread's stream. suspectFrom is the index
// within evs from which events follow a salvage loss (len(evs) or more
// for "none", 0 for the whole chunk); once a thread turns suspect it
// stays suspect. Adding to a finished merge returns ErrAddAfterFinish
// and buffers nothing.
//
// The merger keeps evs itself as a read-only view, without copying it,
// until every event in it has been delivered: the caller must not modify
// evs after Add.
func (m *Merger) Add(tid int32, evs []trace.Event, suspectFrom int) error {
	if m.finished {
		return ErrAddAfterFinish
	}
	q := m.queue(tid)
	if suspectFrom < len(evs) && !q.hasSuspect {
		q.hasSuspect = true
		if suspectFrom < 0 {
			suspectFrom = 0
		}
		q.suspectFrom = q.added + uint64(suspectFrom)
	}
	if len(evs) == 0 {
		return nil
	}
	q.push(evs)
	m.remaining += len(evs)
	if m.remaining > m.backlogHWM {
		m.backlogHWM = m.remaining
	}
	return nil
}

// Backlog returns the number of buffered, not-yet-delivered events.
func (m *Merger) Backlog() int { return m.remaining }

// BacklogHighWater returns the largest backlog ever observed — the peak
// number of events buffered waiting for an earlier timestamp. A high
// watermark far above the steady-state backlog marks a reordering storm
// (chunks arriving badly out of order) even after the merge drains.
func (m *Merger) BacklogHighWater() int { return m.backlogHWM }

// Delivered returns the number of events delivered so far.
func (m *Merger) Delivered() uint64 { return m.delivered }

// Stalls returns the number of ready-queue stalls so far: times a
// thread's stream blocked on a timestamp that was not yet the next
// expected value for its counter (the reorder cost of merging
// out-of-order chunk arrivals).
func (m *Merger) Stalls() uint64 { return m.nStalls }

func (m *Merger) markDegraded() {
	if !m.degraded {
		m.degraded = true
		if m.onDegrade != nil {
			m.onDegrade()
		}
	}
}

// Pump delivers every event that is ready, in rounds over the threads in
// ascending tid order, draining each greedily until it blocks on a
// timestamp or runs out of buffered events. It returns when a full round
// makes no progress (more input, a Finish, or nothing at all may be
// needed) or when fn fails.
func (m *Merger) Pump(fn func(trace.Event) error) error {
	if m.remaining == 0 {
		return nil
	}
	for {
		progressed := false
		m.rounds.Inc()
		for _, q := range m.queues {
			// Drain this thread greedily until it blocks on a timestamp.
			blocked := false
			for !blocked && q.pos < len(q.evs) {
				e := q.evs[q.pos]
				if e.Kind.IsSync() {
					switch {
					case int(e.Counter) >= trace.NumCounters:
						if m.deg == nil {
							return fmt.Errorf("hb: thread %d event %d: bad counter %d",
								q.tid, q.taken+uint64(q.pos), e.Counter)
						}
						// Corrupt counter id: deliver unordered.
						m.deg.BadCounters++
						m.markDegraded()
					case m.next[e.Counter] == e.TS:
						m.next[e.Counter]++
					case m.deg != nil && e.TS < m.next[e.Counter]:
						// The slot already passed: a duplicated or
						// resurrected event. Deliver it, but its ordering
						// is meaningless.
						m.deg.StaleEvents++
						m.markDegraded()
					default:
						m.nStalls++
						m.stalls.Inc()
						blocked = true
						continue
					}
				}
				if m.deg != nil && q.hasSuspect && q.taken+uint64(q.pos) >= q.suspectFrom {
					m.deg.SuspectEvents++
					m.markDegraded()
				}
				q.pos++
				if q.pos == len(q.evs) {
					// The drain continues into the thread's next chunk
					// within this round, exactly as if the chunks had
					// arrived as one slice.
					q.advance()
				}
				m.remaining--
				m.delivered++
				progressed = true
				if err := fn(e); err != nil {
					return err
				}
			}
		}
		if !progressed {
			return nil
		}
	}
}

// Finish drains everything left after the final Add. In strict mode a
// remaining event means the log is corrupt or incomplete; in degraded
// mode stuck timestamp counters are fast-forwarded over the missing
// slots (smallest gap first) until the streams drain. A second Finish
// returns ErrDoubleFinish.
func (m *Merger) Finish(fn func(trace.Event) error) error {
	if m.finished {
		return ErrDoubleFinish
	}
	m.finished = true
	for {
		if err := m.Pump(fn); err != nil {
			return err
		}
		if m.remaining == 0 {
			return nil
		}
		if m.deg == nil {
			return m.stuckError()
		}
		// Every pending stream head is a sync event waiting on a future
		// timestamp (stale and corrupt heads were delivered in the
		// drain). The events that would fill the missing slots are gone —
		// fast-forward the counter with the smallest gap, which weakens
		// exactly the orderings that depended on the lost events and
		// nothing else.
		best := (*mergeQueue)(nil)
		bestGap := uint64(0)
		for _, q := range m.queues {
			if len(q.evs) == 0 {
				continue
			}
			e := q.evs[q.pos]
			gap := e.TS - m.next[e.Counter]
			if best == nil || gap < bestGap {
				best, bestGap = q, gap
			}
		}
		if best == nil {
			// remaining > 0 guarantees a pending stream; defensive.
			return fmt.Errorf("hb: degraded replay stuck with no pending events")
		}
		e := best.evs[best.pos]
		m.markDegraded()
		m.deg.Skips++
		m.deg.SlotsSkipped += bestGap
		m.skips.Add(bestGap)
		m.next[e.Counter] = e.TS
	}
}

func (m *Merger) stuckError() error {
	for _, q := range m.queues {
		if len(q.evs) > 0 {
			e := q.evs[q.pos]
			return fmt.Errorf("hb: replay stuck: thread %d waiting for counter %d ts %d (have %d); log is corrupt or incomplete",
				q.tid, e.Counter, e.TS, m.next[e.Counter])
		}
	}
	return fmt.Errorf("hb: replay stuck with no pending events")
}
