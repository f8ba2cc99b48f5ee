package progen

import "scaldift/internal/isa"

// Property reports whether a candidate program still exhibits the
// behavior being preserved (typically "reproduces this failure").
// It must be deterministic: Shrink may evaluate it many times.
type Property func(*isa.Program) bool

// ShrinkOptions tunes Shrink.
type ShrinkOptions struct {
	// OnAccept, if non-nil, is invoked with every accepted candidate
	// (each is validated and still satisfies the property). Tests use
	// it to audit shrinker soundness step by step.
	OnAccept func(*isa.Program)
}

// Shrink greedily minimizes p while keep keeps holding, using
// ddmin-style contiguous-range removal: it tries dropping chunks of
// instructions from half the program down to single instructions,
// remapping control-flow targets across the gap, and restarts at
// coarse granularity whenever any removal sticks. Every intermediate
// candidate passes isa.Validate before keep is consulted, so keep
// never sees a malformed program. If keep(p) is false to begin with,
// a clone of p is returned unchanged.
//
//scaldift:ignore deadexport test-support: shrinks a failing corpus seed to a minimal program
func Shrink(p *isa.Program, keep Property, opts ShrinkOptions) *isa.Program {
	cur := p.Clone()
	if !keep(cur) {
		return cur
	}
	for {
		shrunk := false
		chunk := len(cur.Instrs) / 2
		if chunk < 1 {
			chunk = 1
		}
		for ; chunk >= 1; chunk /= 2 {
			i := 0
			for i+chunk <= len(cur.Instrs) && len(cur.Instrs) > chunk {
				cand := removeRange(cur, i, i+chunk)
				if cand.Validate() == nil && keep(cand) {
					cur = cand
					shrunk = true
					if opts.OnAccept != nil {
						opts.OnAccept(cur)
					}
					// Do not advance i: the next chunk slid into place.
				} else {
					i++
				}
			}
		}
		if !shrunk {
			return cur
		}
	}
}

// removeRange returns a copy of p with instructions [i,j) removed and
// all control-transfer targets, labels, and function ranges remapped
// across the gap. Targets that pointed into the removed range are
// redirected to the first surviving instruction after it; if that
// lands past the end the candidate fails Validate and is discarded by
// the caller. Indirect targets (BRR, CALLR) are register data and are
// not remapped.
func removeRange(p *isa.Program, i, j int) *isa.Program {
	q := p.Clone()
	n := j - i
	q.Instrs = append(q.Instrs[:i], q.Instrs[j:]...)
	remap := func(t int) int {
		switch {
		case t >= j:
			return t - n
		case t >= i:
			return i
		default:
			return t
		}
	}
	for k := range q.Instrs {
		if q.Instrs[k].Op.HasTarget() {
			q.Instrs[k].Target = remap(q.Instrs[k].Target)
		}
	}
	for name, idx := range q.Labels {
		q.Labels[name] = remap(idx)
	}
	for name, fr := range q.Funcs {
		fr.Start, fr.End = remap(fr.Start), remap(fr.End)
		if fr.End < fr.Start {
			fr.End = fr.Start
		}
		q.Funcs[name] = fr
	}
	return q
}
