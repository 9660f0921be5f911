// Package collector is the fleet ingestion service: a stdlib-only TCP
// service that accepts LTRC2 trace streams from many concurrent producer
// processes, runs each producer through its own online detection
// pipeline in a fault-isolated session, deduplicates races fleet-wide by
// static identity, and rolls per-producer run reports into the ledger.
//
// Robustness is the design center. Each producer connection is handled
// by a panic-recovered, resource-bounded goroutine: one hostile or
// crashing producer can disconnect itself, corrupt its own stream, or
// trickle bytes forever, and the only thing that degrades is that
// producer's own analysis. The wire protocol addresses every payload by
// its absolute byte offset in the producer's log, which makes the two
// hard distributed-systems problems trivial: a retried send is a
// duplicate offset range (dropped, never fed twice), and a reconnect
// resumes exactly at the server's accepted offset (returned in the
// handshake). Overload sheds bytes instead of blocking: an
// out-of-order backlog past the session's reorder budget abandons the
// missing range and lets the LTRC2 salvage decoder heal the gap, which
// degrades that producer's analysis to confirmed/unconfirmed — the
// confirmed set keeps the zero-false-positive guarantee.
//
// The wire protocol: the producer sends the 7-byte magic "LRCOL1\n",
// one JSON Hello line, then binary frames; the server answers the hello
// with a JSON HelloReply line (carrying the resume offset) and the
// final EOF frame with a JSON FinalReply line (carrying the producer's
// race report, byte-identical to `literace detect` on the same bytes).
//
// Frame layout (big-endian): 1 flag byte, 8-byte absolute byte offset,
// 4-byte payload length, payload. Flag 0 is data; flag 1 is EOF (no
// payload; the offset is the log's total length); flag 2 is an optional
// telemetry frame (payload: one TelemetryUpdate JSON document, offset
// unused). Telemetry is capability-negotiated: a producer only sends
// flag-2 frames when the HelloReply acked `telemetry`, so old
// collectors never see one and old producers keep working unchanged.
// A frame kind the collector does not understand is answered with a
// structured Reject JSON line and skipped — the session keeps
// streaming, so future frame types degrade gracefully instead of
// tearing sessions down.
package collector

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Magic opens every producer connection.
const Magic = "LRCOL1\n"

// ProtocolVersion is the hello version this package speaks.
const ProtocolVersion = 1

// DefaultMaxFrame bounds a single frame payload; a hello advertising a
// bigger frame is a hostile producer and is rejected at read time.
const DefaultMaxFrame = 4 << 20

// maxHelloLine bounds the JSON handshake line.
const maxHelloLine = 4 << 10

// Frame flags.
const (
	frameData byte = 0
	frameEOF  byte = 1
	// frameTelemetry carries one TelemetryUpdate JSON payload. Optional:
	// only sent after the server acks the capability in its HelloReply.
	frameTelemetry byte = 2
)

const frameHeaderLen = 1 + 8 + 4

// Hello is the producer's handshake, one JSON line after the magic.
type Hello struct {
	V        int    `json:"v"`
	Producer string `json:"producer"`
	Module   string `json:"module,omitempty"`
	// Resume asks the server for its accepted offset so a reconnecting
	// producer can skip everything already ingested.
	Resume bool `json:"resume,omitempty"`
	// Telemetry advertises that this producer wants to ship periodic
	// obs-snapshot telemetry frames. The server acks the capability in
	// HelloReply.Telemetry; without the ack the producer must not send
	// flag-2 frames (an old collector would mistake them for data).
	Telemetry bool `json:"telemetry,omitempty"`
}

// HelloReply answers a Hello. Next is the absolute byte offset the
// server wants next — the resume point after a reconnect, 0 for a new
// session.
type HelloReply struct {
	OK   bool   `json:"ok"`
	Next uint64 `json:"next"`
	// Telemetry acks the producer's telemetry capability request; absent
	// (false) from old collectors, which never negotiated it.
	Telemetry bool   `json:"telemetry,omitempty"`
	Err       string `json:"err,omitempty"`
}

// TelemetryUpdate is the telemetry frame payload: a compact cut of the
// producer's obs registry (counters and gauges only — histograms and
// vectors stay on the producer's own /snapshot to bound wire size and
// fleet series cardinality). At is the producer's clock; the collector
// stamps series with its own receive time so fleet history stays
// monotone under producer clock skew.
type TelemetryUpdate struct {
	At       int64              `json:"at"`
	Counters map[string]uint64  `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

// Reject is the server's structured answer to a frame kind it does not
// understand: one JSON line on the reply channel. The session is NOT
// torn down — the offending frame is skipped and data keeps flowing.
// Producers drain reject lines while waiting for the FinalReply (see
// readFinalReply); old producers never trigger one, since they only
// send frame kinds 0 and 1.
type Reject struct {
	Reject bool   `json:"reject"`
	Flags  byte   `json:"flags"`
	Reason string `json:"reason,omitempty"`
}

// FinalReply answers the EOF frame: the producer's detection outcome.
// Report is the full race report text, byte-identical to what
// `literace detect` (or `detect -salvage`, for a damaged stream) prints
// for the same bytes.
type FinalReply struct {
	OK          bool   `json:"ok"`
	Report      string `json:"report,omitempty"`
	Races       int    `json:"races"`
	Unconfirmed int    `json:"unconfirmed"`
	// Events is the number of memory + sync events the collector decoded
	// and analyzed for this producer (throughput accounting).
	Events   int64  `json:"events"`
	Degraded bool   `json:"degraded"`
	Complete bool   `json:"complete"`
	Err      string `json:"err,omitempty"`
}

// readFinalReply reads the FinalReply line, draining any structured
// Reject lines the server queued for optional frames it refused — a
// reject is advisory, never a session failure.
func readFinalReply(br *bufio.Reader) (*FinalReply, error) {
	for {
		var line struct {
			FinalReply
			Reject bool `json:"reject"`
		}
		if err := readJSONLine(br, &line); err != nil {
			return nil, err
		}
		if line.Reject {
			continue
		}
		return &line.FinalReply, nil
	}
}

// writeJSONLine encodes v followed by one newline.
func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// readJSONLine decodes one bounded JSON line into v.
func readJSONLine(r *bufio.Reader, v any) error {
	line, err := r.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return fmt.Errorf("collector: handshake line exceeds %d bytes", maxHelloLine)
		}
		return err
	}
	return json.Unmarshal(line, v)
}

// writeFrame emits one frame. payload must be empty for EOF frames.
func writeFrame(w io.Writer, flags byte, off uint64, payload []byte) error {
	var hdr [frameHeaderLen]byte
	hdr[0] = flags
	binary.BigEndian.PutUint64(hdr[1:9], off)
	binary.BigEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame, rejecting payloads over maxFrame bytes
// before buffering anything (a hostile length can not balloon memory).
// The payload reuses buf's storage when it fits, so it is valid only
// until the next call with the same buf; pass the payload back as buf to
// read a connection's frames into one buffer.
func readFrame(r io.Reader, maxFrame int, buf []byte) (flags byte, off uint64, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	flags = hdr[0]
	off = binary.BigEndian.Uint64(hdr[1:9])
	n := binary.BigEndian.Uint32(hdr[9:13])
	if int64(n) > int64(maxFrame) {
		return 0, 0, nil, fmt.Errorf("collector: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	if int(n) <= cap(buf) {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return flags, off, payload, nil
}
