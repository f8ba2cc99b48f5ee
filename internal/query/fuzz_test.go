package query

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzQueryCodec fuzzes the query/response JSON codec two ways:
//
//  1. raw bytes through the strict request decoders — must never
//     panic, and anything that decodes must survive an
//     encode/decode round trip unchanged (codec stability);
//  2. a fuzzed in-memory request/response model through
//     encode→decode — must come back DeepEqual, and the decoder's
//     accept/reject verdict must agree with the model's Validate.
func FuzzQueryCodec(f *testing.F) {
	f.Add([]byte(`{"trace":"t","direction":"backward","criteria":[{"tid":0}]}`),
		"t", "backward", 0, uint64(0), false, int32(0), true, false, 10, 4, int64(100), int64(5), false, 1.5)
	f.Add([]byte(`{"trace":"x","direction":"forward","criteria":[{"tid":3,"n":17,"pc":42}],"follow_control":true}`),
		"x", "forward", 3, uint64(17), true, int32(42), false, true, 0, 0, int64(0), int64(0), true, 0.0)
	f.Add([]byte(`{"trace":"t","direction":"backward","criteria":[{"tid":0}],"bogus":1}`),
		"", "sideways", -1, uint64(1)<<60, true, int32(-7), false, false, -1, 999, int64(-2), int64(-3), false, math.Inf(1))

	// The retired "workers" knob is rejected like any unknown field.
	if _, err := DecodeSliceRequest(strings.NewReader(
		`{"trace":"t","direction":"backward","criteria":[{"tid":0}],"workers":4}`)); err == nil {
		f.Fatal(`slice decoder accepted the retired "workers" field`)
	}
	if _, err := DecodeProvenanceRequest(strings.NewReader(
		`{"trace":"t","criteria":[{"tid":0}],"workers":4}`)); err == nil {
		f.Fatal(`provenance decoder accepted the retired "workers" field`)
	}

	f.Fuzz(func(t *testing.T, raw []byte,
		trace, direction string, tid int, n uint64, hasPC bool, pc int32,
		followControl, followAnti bool, maxNodes, edges int,
		deadlineMillis, budget int64, rawFlag bool, wall float64) {

		// Part 1: arbitrary bytes through the strict decoders.
		if req, err := DecodeSliceRequest(bytes.NewReader(raw)); err == nil {
			data, err := json.Marshal(req)
			if err != nil {
				t.Fatalf("decoded request failed to re-encode: %v", err)
			}
			again, err := DecodeSliceRequest(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("re-encoded request rejected: %v\n%s", err, data)
			}
			if !reflect.DeepEqual(req, again) {
				t.Fatalf("request round trip drifted:\n1st %+v\n2nd %+v", req, again)
			}
		}
		if preq, err := DecodeProvenanceRequest(bytes.NewReader(raw)); err == nil {
			data, _ := json.Marshal(preq)
			again, err := DecodeProvenanceRequest(bytes.NewReader(data))
			if err != nil || !reflect.DeepEqual(preq, again) {
				t.Fatalf("provenance round trip drifted (%v)", err)
			}
		}

		// Part 2: the in-memory model through the codec. Invalid
		// UTF-8 ids are in scope: Validate must reject them before
		// Marshal can silently rewrite them to U+FFFD.
		model := &SliceRequest{
			Trace:            trace,
			Direction:        direction,
			Criteria:         []Criterion{{TID: tid, N: n}},
			FollowControl:    followControl,
			FollowAnti:       followAnti,
			MaxNodes:         maxNodes,
			DeadlineMillis:   deadlineMillis,
			BudgetChunkLoads: budget,
			Raw:              rawFlag,
		}
		if hasPC {
			model.Criteria[0].PC = &pc
		}
		data, err := json.Marshal(model)
		if err != nil {
			t.Fatalf("model failed to encode: %v", err)
		}
		decoded, err := DecodeSliceRequest(bytes.NewReader(data))
		if verr := model.Validate(); verr != nil {
			// An invalid model must never survive the wire verbatim:
			// the decoder either rejects the bytes, or it accepted a
			// different (Marshal-sanitized) request. If it hands back
			// the original model unchanged, the two ends disagree
			// with Validate and the bound is dead letter.
			if err == nil && reflect.DeepEqual(model, decoded) {
				t.Fatalf("decoder accepted a request Validate rejects (%v):\n%s", verr, data)
			}
			return
		}
		if err != nil {
			t.Fatalf("decoder rejected a valid model: %v\n%s", err, data)
		}
		if !reflect.DeepEqual(model, decoded) {
			t.Fatalf("model round trip drifted:\nsent %+v\ngot  %+v", model, decoded)
		}

		// Response model: numeric fields must survive the wire exactly
		// (JSON numbers are emitted as digits, not floats). Responses
		// echo fields of an already-validated request, so invalid
		// UTF-8 never reaches them in operation; skip those inputs.
		if !math.IsNaN(wall) && !math.IsInf(wall, 0) &&
			utf8.ValidString(trace) && utf8.ValidString(direction) {
			resp := &SliceResponse{
				Trace:           trace,
				Direction:       direction,
				PCs:             []int32{pc, pc + 1},
				Nodes:           maxNodes,
				Edges:           edges,
				ChunkLoads:      budget,
				WallMillis:      wall,
				BudgetExhausted: followAnti,
				Interrupted:     rawFlag,
				ShardBusyMillis: map[string]float64{"0": wall},
			}
			data, err := json.Marshal(resp)
			if err != nil {
				t.Fatalf("response failed to encode: %v", err)
			}
			var back SliceResponse
			if err := decodeStrict(bytes.NewReader(data), &back); err != nil {
				t.Fatalf("response rejected by strict decode: %v\n%s", err, data)
			}
			if !reflect.DeepEqual(resp, &back) {
				t.Fatalf("response round trip drifted:\nsent %+v\ngot  %+v", resp, &back)
			}
		}
	})
}

// TestInvalidUTF8TraceRejected pins the wire-codec fix: before
// Validate checked UTF-8, a trace id like "t\xff" passed validation,
// json.Marshal silently rewrote it to U+FFFD on the way out, and the
// server answered for a *different* trace id than the caller named.
// Validate now rejects the id on the client before it can be encoded.
func TestInvalidUTF8TraceRejected(t *testing.T) {
	req := &SliceRequest{
		Trace:     "t\xff",
		Direction: DirBackward,
		Criteria:  []Criterion{{TID: 0, N: 1}},
	}
	if err := req.Validate(); err == nil {
		t.Fatal("Validate accepted an invalid-UTF-8 trace id")
	}

	// The hazard being pinned: one Marshal trip renames the trace, so
	// without the Validate rejection both ends would happily agree on
	// the wrong id.
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := DecodeSliceRequest(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decode of sanitized bytes: %v", err)
	}
	if got.Trace == req.Trace {
		t.Fatalf("Marshal no longer rewrites invalid UTF-8 (%q): this regression test is stale", got.Trace)
	}

	// The client refuses to send it at all — no HTTP round trip.
	c := NewClient("http://127.0.0.1:0", nil)
	if _, err := c.Slice(context.Background(), req); err == nil {
		t.Fatal("client sent a request with an invalid-UTF-8 trace id")
	}
	preq := &ProvenanceRequest{Trace: "t\xff", Criteria: req.Criteria}
	if err := preq.Validate(); err == nil {
		t.Fatal("provenance Validate accepted an invalid-UTF-8 trace id")
	}
}
