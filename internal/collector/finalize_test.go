package collector

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"

	"literace/internal/trace"
)

// tinyLog encodes a two-thread log with one unsynchronized write pair.
func tinyLog(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for tid := int32(0); tid < 2; tid++ {
		if err := w.Thread(tid).Append(trace.Event{Kind: trace.KindWrite, TID: tid, Addr: 0x1000}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(trace.Meta{Module: "tiny", Threads: 2}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFinalizedSessionsReleasePipeline finalizes several sessions and
// checks that none keeps its pipeline, and that input reaching a
// finalized session is rejected rather than fed to a released pipeline.
func TestFinalizedSessionsReleasePipeline(t *testing.T) {
	srv, err := New(Options{RetainFinalized: -1})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(lis) }()
	t.Cleanup(func() { _ = srv.Close() })

	data := tinyLog(t)
	const n = 4
	for i := 0; i < n; i++ {
		final, err := ShipBytes(data, ShipOptions{Addr: lis.Addr().String(), Producer: fmt.Sprintf("p%d", i)})
		if err != nil || !final.OK {
			t.Fatalf("ship %d: %v (%+v)", i, err, final)
		}
	}
	sessions := srv.snapshotSessions()
	if len(sessions) != n {
		t.Fatalf("resident sessions = %d, want %d", len(sessions), n)
	}
	for _, sess := range sessions {
		sess.mu.Lock()
		state, pipe := sess.state, sess.pipe
		sess.mu.Unlock()
		if state != sessDone {
			t.Errorf("%s: state %s, want done", sess.name, state)
		}
		if pipe != nil {
			t.Errorf("%s: finalized session still holds its pipeline", sess.name)
		}
	}
	if active, parked := srv.sessionCounts(); active+parked != 0 {
		t.Errorf("session counts after finalize: %d active, %d parked, want none", active, parked)
	}

	sess := sessions[0]
	sess.mu.Lock()
	next := sess.accepted
	sess.mu.Unlock()
	if err := sess.ingest(next, []byte{0}); !errors.Is(err, errSessionFinalized) {
		t.Fatalf("ingest after finalize = %v, want errSessionFinalized", err)
	}
	if final := srv.finalizeSession(sess, nil); !final.OK {
		t.Fatalf("re-finalize changed the recorded outcome: %+v", final)
	}
}
