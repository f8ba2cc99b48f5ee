package ddg_test

import (
	"fmt"
	"testing"

	"scaldift/internal/ddg"
	"scaldift/internal/ontrac"
	"scaldift/internal/prog"
)

// chunkSink retains spilled chunks in order.
type chunkSink struct{ chunks []ddg.RawChunk }

func (s *chunkSink) SpillChunk(ch ddg.RawChunk) { s.chunks = append(s.chunks, ch) }

// traceChunks runs w under the inline tracer and returns every chunk
// its buffer sealed, in spill order.
func traceChunks(tb testing.TB, w *prog.Workload, opts ontrac.Options) []ddg.RawChunk {
	tb.Helper()
	var sink chunkSink
	tr := ontrac.New(w.Prog, opts)
	tr.Buffer().SetSpill(&sink)
	m := w.NewMachine()
	m.AttachTool(tr.Tool())
	if res := m.Run(); res.Failed {
		tb.Fatalf("%s: %s", w.Name, res.FailMsg)
	}
	tr.Buffer().Flush()
	return sink.chunks
}

// record is one Append call.
type record struct {
	use     ddg.ID
	usePC   int32
	deps    []ddg.Dep
	rlDelta uint64
}

// appendStream decodes chunks back into the Append calls that made
// them, in the order they were made: the global order is lost across
// threads, but each chunk seals on its own last record, so replaying
// chunk after chunk cuts every thread's chunks at the same records.
func appendStream(tb testing.TB, chunks []ddg.RawChunk) []record {
	tb.Helper()
	var recs []record
	for i, rc := range chunks {
		d, err := rc.Decode()
		if err != nil {
			tb.Fatalf("chunk %d: %v", i, err)
		}
		d.Records(func(n uint64, usePC int32, deps []ddg.Dep, rlDelta uint64) {
			recs = append(recs, record{ddg.MakeID(rc.TID, n), usePC, deps, rlDelta})
		})
	}
	return recs
}

// eachTracedRun traces every workload under four schedules and the
// three recording configurations and hands fn each run's chunks.
func eachTracedRun(t *testing.T, fn func(run string, chunks []ddg.RawChunk)) {
	configs := []struct {
		name string
		opts ontrac.Options
	}{
		{"unoptimized", ontrac.Unoptimized()},
		{"static", ontrac.StaticOptions()},
		{"all", ontrac.AllOptimizations()},
	}
	for _, w := range prog.All() {
		for seed := uint64(0); seed < 4; seed++ {
			w.Cfg.Seed = seed
			w.Cfg.RandomPreempt = true
			if w.Cfg.Quantum == 0 {
				w.Cfg.Quantum = 11
			}
			for _, cfg := range configs {
				fn(fmt.Sprintf("%s seed %d %s", w.Name, seed, cfg.name), traceChunks(t, w, cfg.opts))
			}
		}
	}
}

// TestWireFormatByteIdentity is the gate on "not one byte of the wire
// format changed": for every workload, four schedules and the three
// recording configurations, the chunk stream the in-place encoder
// spills equals, field for field and byte for byte, what the reference
// encoder (RefCompact, the previous Append kept verbatim) spills for
// the same records — at the default chunk size, where the records are
// those of the traced run itself, and at a 64-byte one that puts a
// seam every few records.
func TestWireFormatByteIdentity(t *testing.T) {
	var records int
	eachTracedRun(t, func(run string, traced []ddg.RawChunk) {
		stream := appendStream(t, traced)
		records += len(stream)
		for _, chunkSize := range []int{64, 4096} {
			var got, want chunkSink
			c := ddg.NewCompactSized(0, chunkSize)
			c.SetSpill(&got)
			ref := ddg.NewRefCompact(0, chunkSize, &want)
			for _, r := range stream {
				c.Append(r.use, r.usePC, r.deps, r.rlDelta)
				ref.Append(r.use, r.usePC, r.deps, r.rlDelta)
			}
			c.Flush()
			ref.Flush()
			if err := ddg.DiffChunks(got.chunks, want.chunks); err != nil {
				t.Fatalf("%s chunk size %d: new encoder vs reference: %v", run, chunkSize, err)
			}
			if chunkSize != 4096 {
				continue
			}
			// The replay is lossless: it rebuilds the traced run's own
			// chunks (up to the order Flush and interleaved threads
			// spill them in), so the reference was held to the bytes
			// the tracer really wrote.
			if err := ddg.DiffChunks(byThread(want.chunks), byThread(traced)); err != nil {
				t.Fatalf("%s: reference vs traced run: %v", run, err)
			}
		}
	})
	if records < 100000 {
		t.Fatalf("only %d records compared — vacuous", records)
	}
}

// TestDecodedMatchesReference: the compact decoded form answers every
// lookup as the arena decoder it replaced (RefDecode) does — each
// record's dependences, order included, and its use PC, and nothing on
// the instances beside it — for every workload, four schedules, the
// three recording configurations and chunk sizes 64 and 4096.
func TestDecodedMatchesReference(t *testing.T) {
	var records int
	eachTracedRun(t, func(run string, traced []ddg.RawChunk) {
		stream := appendStream(t, traced)
		for _, chunkSize := range []int{64, 4096} {
			var sink chunkSink
			c := ddg.NewCompactSized(0, chunkSize)
			c.SetSpill(&sink)
			for _, r := range stream {
				c.Append(r.use, r.usePC, r.deps, r.rlDelta)
			}
			c.Flush()
			for i, rc := range sink.chunks {
				d, err := rc.Decode()
				ref, refErr := ddg.RefDecode(rc)
				if err != nil || refErr != nil {
					t.Fatalf("%s chunk size %d chunk %d: %v / reference %v", run, chunkSize, i, err, refErr)
				}
				if err := ddg.DiffDecoded(d, ref); err != nil {
					t.Fatalf("%s chunk size %d chunk %d: %v", run, chunkSize, i, err)
				}
				records += rc.Count
			}
		}
	})
	if records < 100000 {
		t.Fatalf("only %d records compared — vacuous", records)
	}
}

// byThread stably groups a chunk stream by thread, ascending.
func byThread(chunks []ddg.RawChunk) []ddg.RawChunk {
	maxTID := 0
	for _, rc := range chunks {
		maxTID = max(maxTID, rc.TID)
	}
	var out []ddg.RawChunk
	for tid := 0; tid <= maxTID; tid++ {
		for _, rc := range chunks {
			if rc.TID == tid {
				out = append(out, rc)
			}
		}
	}
	return out
}

// benchStreams are the record streams the codec benchmarks replay:
// the bench module's read-bound workload (every dependence stored)
// and its record-bound one (O1 and O3 on), smaller.
func benchStreams(b *testing.B) map[string][]ddg.RawChunk {
	return map[string][]ddg.RawChunk{
		"psum":     traceChunks(b, prog.PSum(4, 4000, 7), ontrac.Unoptimized()),
		"compress": traceChunks(b, prog.Compress(12000, 1), ontrac.StaticOptions()),
	}
}

// BenchmarkCompactAppend measures the write side alone: the traced
// run's Append calls replayed into a fresh Compact whose sink retains
// the sealed chunks, as bench/'s capture does.
func BenchmarkCompactAppend(b *testing.B) {
	for name, chunks := range benchStreams(b) {
		stream := appendStream(b, chunks)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var sink chunkSink
				c := ddg.NewCompact(0)
				c.SetSpill(&sink)
				for _, r := range stream {
					c.Append(r.use, r.usePC, r.deps, r.rlDelta)
				}
				c.Flush()
			}
			b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkChunkDecode measures the read side alone: every chunk of
// the traced run decoded once per iteration.
func BenchmarkChunkDecode(b *testing.B) {
	for name, chunks := range benchStreams(b) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, rc := range chunks {
					if _, err := rc.Decode(); err != nil {
						b.Fatal(err)
					}
				}
			}
			n := float64(len(chunks)) * float64(b.N)
			b.ReportMetric(b.Elapsed().Seconds()*1e6/n, "us/chunk")
			b.ReportMetric(float64(testing.AllocsPerRun(1, func() { chunks[0].Decode() })), "allocs/chunk")
		})
	}
}
