package dift

import "scaldift/internal/vm"

// Bool is the boolean taint domain used for attack detection: a label
// is true iff the value is derived from program input.
type Bool struct{}

// Source marks input words tainted.
func (Bool) Source(*vm.Event) bool { return true }

// Join is logical or.
func (Bool) Join(a, b bool) bool { return a || b }

// Transfer propagates the joined source label unchanged.
func (Bool) Transfer(_ *vm.Event, src bool) bool { return src }

// PC is the program-counter taint domain of §3.3: instead of a
// boolean, a tainted location carries the statement id (source line)
// of the most recent instruction that wrote to it; zero means
// untainted. When an attack is detected, the label of the offending
// location directly names the statement that last modified it — the
// paper reports this usually is the root cause of the exploited bug.
type PC struct{}

// PCLabel is the PC-taint label: a statement id, 0 = untainted.
type PCLabel int32

// Source labels an input word with the reading statement.
func (PC) Source(ev *vm.Event) PCLabel { return PCLabel(ev.Instr.Line) }

// Join prefers a when it is non-zero, else b. It does NOT pick the
// most recent writer — recency is unknowable at join time — and it
// does not need to: Transfer rewrites every non-zero result to the
// current statement, so Join only has to preserve "some source was
// tainted". The a-then-b preference is a fixed convention pinned by
// TestPCJoinPrefersFirstOperand.
func (PC) Join(a, b PCLabel) PCLabel {
	if a != 0 {
		return a
	}
	return b
}

// Transfer rewrites any tainted value to the current statement id:
// "the PC value corresponding to a tainted location is the PC of the
// most recent instruction that wrote to the location".
func (PC) Transfer(ev *vm.Event, src PCLabel) PCLabel {
	if src == 0 {
		return 0
	}
	return PCLabel(ev.Instr.Line)
}

// NopSink is a Sink that ignores everything; embed it to implement
// only the hooks you need.
type NopSink[L comparable] struct{}

// OnOutput ignores the observation.
func (NopSink[L]) OnOutput(*vm.Event, L) {}

// OnIndirectBranch ignores the observation.
func (NopSink[L]) OnIndirectBranch(*vm.Event, L) {}

// CollectSink records every sink observation; tests use it.
type CollectSink[L comparable] struct {
	NopSink[L]
	Outputs  []L
	Branches []L
}

// OnOutput appends the label.
func (c *CollectSink[L]) OnOutput(_ *vm.Event, l L) { c.Outputs = append(c.Outputs, l) }

// OnIndirectBranch appends the label.
func (c *CollectSink[L]) OnIndirectBranch(_ *vm.Event, l L) { c.Branches = append(c.Branches, l) }
