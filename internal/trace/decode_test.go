package trace_test

import (
	"bytes"
	"encoding/json"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"literace"
	"literace/internal/trace"
	"literace/internal/trace/faultinject"
	"literace/internal/workloads"
)

// decoded is everything ReadAll and Salvage return for one input.
type decoded struct {
	strict    *trace.Log
	strictErr string
	salvaged  *trace.Log
	report    []byte // the SalvageReport as JSON
}

func decodeWith(t *testing.T, procs int, data []byte) decoded {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var d decoded
	var err error
	if d.strict, err = trace.ReadAll(bytes.NewReader(data)); err != nil {
		d.strictErr = err.Error()
	}
	log, rep, err := trace.Salvage(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	d.salvaged = log
	if d.report, err = json.Marshal(rep); err != nil {
		t.Fatal(err)
	}
	return d
}

func sameLog(a, b *trace.Log) bool {
	if a == nil || b == nil {
		return a == b
	}
	return maps.EqualFunc(a.Threads, b.Threads, slices.Equal[[]trace.Event]) &&
		slices.Equal(a.ChunkOrder, b.ChunkOrder) &&
		maps.Equal(a.Degraded, b.Degraded) &&
		reflect.DeepEqual(a.Meta, b.Meta)
}

// TestDecodeWorkersAgree decodes the logs of the benchmark matrix, whole
// and damaged by each kind of fault, with one decode worker and with
// four: ReadAll and Salvage must return identical logs, errors and
// salvage reports.
func TestDecodeWorkersAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark matrix")
	}
	for _, key := range []string{"dryad", "apache-1", "concrt-msg", "firefox-render"} {
		wl, ok := workloads.ByKey(key)
		if !ok {
			t.Fatalf("unknown benchmark %q", key)
		}
		prog, err := literace.Assemble(key, wl.Source(0))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := prog.Instrument(); err != nil {
			t.Fatal(err)
		}
		for _, sampler := range []string{"Full", "TL-Ad"} {
			var buf bytes.Buffer
			if _, err := prog.Run(literace.Config{Sampler: sampler, Seed: 1, LogTo: &buf}); err != nil {
				t.Fatalf("%s %s: %v", key, sampler, err)
			}
			data := buf.Bytes()
			spans, err := trace.ChunkSpans(data)
			if err != nil {
				t.Fatal(err)
			}
			var threadChunks []int
			for i, sp := range spans {
				if !sp.IsMeta() && !sp.IsCheckpoint() {
					threadChunks = append(threadChunks, i)
				}
			}
			rng := rand.New(rand.NewSource(int64(len(data))))
			inputs := []struct {
				name string
				data []byte
			}{
				{"whole", data},
				{"truncate", faultinject.TruncateAt(data, rng.Intn(len(data)))},
				{"flipbit", faultinject.FlipBit(data, rng.Intn(8*len(data)))},
				{"drop", faultinject.DropChunk(data, threadChunks[rng.Intn(len(threadChunks))])},
				{"dup", faultinject.DuplicateChunk(data, threadChunks[rng.Intn(len(threadChunks))])},
			}
			for _, in := range inputs {
				one, four := decodeWith(t, 1, in.data), decodeWith(t, 4, in.data)
				name := key + "/" + sampler + "/" + in.name
				if one.strictErr != four.strictErr || !sameLog(one.strict, four.strict) {
					t.Errorf("%s: ReadAll differs between 1 and 4 workers (errors %q, %q)",
						name, one.strictErr, four.strictErr)
				}
				if !sameLog(one.salvaged, four.salvaged) {
					t.Errorf("%s: salvaged log differs between 1 and 4 workers", name)
				}
				if !bytes.Equal(one.report, four.report) {
					t.Errorf("%s: salvage report differs:\n%s\n%s", name, one.report, four.report)
				}
				if in.name == "whole" && (one.strictErr != "" || one.salvaged.NumEvents() != one.strict.NumEvents()) {
					t.Errorf("%s: intact log did not decode in full: %s", name, one.strictErr)
				}
			}
		}
	}
}
