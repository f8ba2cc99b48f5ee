package ontrac

import (
	"scaldift/internal/ddg"
	"scaldift/internal/isa"
)

// Reconstructor rebuilds O1 reconstruction state for a program
// WITHOUT the recording run's Tracer: the static in-block dependence
// tables derive from the binary alone, so a service that reopens a
// trace directory long after (and in a different process than) the
// recording can still serve reconstructing slices. Build it once per
// program and compose ReaderOver per source; the tables are immutable
// after construction, so one Reconstructor serves concurrent queries.
//
// What cannot be rebuilt offline: O2's learned dictionary and O3's
// per-load chain heads are run state that lived in the recording
// Tracer. O3 survives anyway (its markers are stored in the chunks as
// SameAs edges), but a trace recorded with TraceDictionary needs the
// original Tracer's Reader for exact O2 reconstruction — a static
// Reconstructor over such a trace under-approximates. Record service
// traces with TraceDictionary off (see StaticOptions).
type Reconstructor struct {
	t tables
}

// NewStaticReconstructor builds reconstruction tables for prog. Only
// the option fields that shape static reconstruction matter
// (ElideStaticBlockDeps); no learned dictionary exists, and nothing
// of the recording side — extractor, buffer, T2 taint engine — is
// built (reconstruction reads, it does not record).
func NewStaticReconstructor(prog *isa.Program, opts Options) *Reconstructor {
	return &Reconstructor{t: tables{staticByUse: staticByUse(prog, opts)}}
}

// StaticOptions is the recording configuration whose traces a static
// Reconstructor reconstructs exactly: every lossless optimization
// that does not need run state carried out of the recording process
// (O1 and O3, with control dependences), dictionary off.
func StaticOptions() Options {
	return Options{
		ControlDeps:          true,
		ElideStaticBlockDeps: true,
		ElideRedundantLoads:  true,
	}
}

// ReaderOver returns the reconstructing ddg.Source view over any raw
// record source carrying a trace of this program — typically a
// store.Reader (or a per-query budgeted view of one) reopened from a
// trace directory.
func (r *Reconstructor) ReaderOver(src ddg.Source) *Reader {
	return &Reader{t: &r.t, src: src}
}
