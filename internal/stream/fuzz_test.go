package stream_test

import (
	"bytes"
	"reflect"
	"testing"

	"literace/internal/hb"
	"literace/internal/stream"
	"literace/internal/trace"
)

// FuzzStreamParity is the differential gate between the online pipeline
// and the batch path: on arbitrary bytes, streaming decode + sharded
// detection must agree exactly with trace.Salvage + hb.DetectDegraded —
// same races in the same order, same confirmed/unconfirmed split, same
// degradation and salvage accounting — no matter how the input is split
// into feeds or how many shards run.
func FuzzStreamParity(f *testing.F) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	// A seed log with real cross-thread sync and racing accesses.
	var ts [4]uint64
	for i := 0; i < 60; i++ {
		tid := int32(i % 3)
		tw := w.Thread(tid)
		tw.Append(trace.Event{Kind: trace.KindWrite, TID: tid, Addr: uint64(i % 7), Mask: 1})
		tw.Append(trace.Event{Kind: trace.KindRead, TID: tid, Addr: 100 + uint64(i%5), Mask: 1})
		if i%4 == 0 {
			c := uint8(i % 4)
			ts[c]++
			tw.Append(trace.Event{Kind: trace.KindAcqRel, Op: trace.OpLock, TID: tid,
				Addr: 1000 + uint64(c), Counter: c, TS: ts[c]})
		}
		if i%9 == 0 {
			tw.Flush()
		}
	}
	if err := w.Close(trace.Meta{Module: "fuzz-seed"}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid, uint16(0), uint8(4))
	f.Add(valid, uint16(len(valid)/2), uint8(1))
	f.Add([]byte{}, uint16(0), uint8(2))
	for i := 0; i < len(valid); i += 7 {
		f.Add(valid[:i], uint16(i/2), uint8(3))
		c := append([]byte(nil), valid...)
		c[i] ^= 0x55
		f.Add(c, uint16(3*i), uint8(5))
	}

	magic := []byte("LTRC2\n")

	f.Fuzz(func(t *testing.T, data []byte, split uint16, shards uint8) {
		slog, srep, serr := trace.Salvage(bytes.NewReader(data))

		p := stream.New(stream.Options{
			Shards:     int(shards%8) + 1,
			SamplerBit: hb.AllEvents,
			BatchSize:  int(shards)%300 + 1,
		})
		cut := 0
		if len(data) > 0 {
			cut = int(split) % (len(data) + 1)
		}
		ferr := p.Feed(data[:cut])
		if ferr == nil {
			ferr = p.Feed(data[cut:])
		}
		res, gerr := p.Finish()
		if ferr != nil {
			gerr = ferr
		}

		if len(data) < len(magic) && bytes.HasPrefix(magic, data) {
			// Dead-producer input: a proper prefix of the magic (or zero
			// bytes). Batch salvage calls it not-a-log; the incremental
			// decoder finishes cleanly with an empty result, accounting
			// the bytes as dropped. This is the one intended divergence.
			if serr == nil {
				t.Fatalf("salvage accepted sub-header input: %q", data)
			}
			if gerr != nil {
				t.Fatalf("stream failed on sub-header input %q: %v", data, gerr)
			}
			if res.NumRaces != 0 || res.MemOps != 0 || res.SyncOps != 0 {
				t.Fatalf("sub-header input produced events: %+v", res.Result)
			}
			if res.Salvage.Truncated || res.Salvage.BytesDropped != int64(len(data)) {
				t.Fatalf("sub-header salvage report: %+v", res.Salvage)
			}
			return
		}
		if (serr != nil) != (gerr != nil) {
			t.Fatalf("salvage err %v, stream err %v", serr, gerr)
		}
		if serr != nil {
			return
		}
		want, wdeg, err := hb.DetectDegraded(slog, hb.Options{SamplerBit: hb.AllEvents})
		if err != nil {
			t.Fatalf("batch detect: %v", err)
		}
		if !reflect.DeepEqual(res.Races, want.Races) {
			t.Fatalf("races differ\nstream: %+v\nbatch:  %+v", res.Races, want.Races)
		}
		if res.NumRaces != want.NumRaces || res.Unconfirmed != want.Unconfirmed ||
			res.Degraded != want.Degraded || res.MemOps != want.MemOps || res.SyncOps != want.SyncOps {
			t.Fatalf("summary differs\nstream: %+v\nbatch:  %+v", res.Result, *want)
		}
		if res.Degradation != *wdeg {
			t.Fatalf("degradation differs: stream %+v, batch %+v", res.Degradation, *wdeg)
		}
		if !reflect.DeepEqual(res.Salvage, srep) {
			t.Fatalf("salvage report differs\nstream: %+v\nbatch:  %+v", res.Salvage, srep)
		}
	})
}
