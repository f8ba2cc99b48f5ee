package vm

// Snapshot is a complete copy of mutable machine state: memory,
// threads, heap cursor, input cursors, output lengths, scheduler PRNG
// and step counts. Restoring a snapshot resumes execution exactly
// where it was taken (given the same inputs and schedule source).
//
// Snapshots implement the paper's checkpointing: under the logging
// phase they are taken periodically so that replay can start from the
// last checkpoint before an event of interest instead of from the
// program start.
type Snapshot struct {
	Mem      []int64
	Threads  []Thread
	calls    [][]int
	heapNext int64
	inputPos map[int]int
	inputSeq int
	outLens  map[int]int
	steps    uint64
	rngState uint64
	cur      int
	budget   int
	schedPos int
	curSlice SchedSlice
	failed   bool
	stopped  bool
	reason   StopReason
}

// SizeWords reports the snapshot's memory footprint in 64-bit words
// (the dominant term; thread state is negligible).
//
//scaldift:ignore deadexport ROADMAP item 9 measures checkpoint size before replay lands
func (s *Snapshot) SizeWords() int { return len(s.Mem) }

// Snapshot captures the current machine state.
//
//scaldift:ignore deadexport ROADMAP item 9 starts replay from a checkpoint
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
		Mem:      append([]int64(nil), m.Mem...),
		heapNext: m.heapNext,
		inputPos: make(map[int]int, len(m.inputPos)),
		inputSeq: m.inputSeq,
		outLens:  make(map[int]int, len(m.outputs)),
		steps:    m.steps,
		rngState: m.rng.state,
		cur:      m.cur,
		budget:   m.budget,
		schedPos: m.schedPos,
		curSlice: m.curSlice,
		failed:   m.failed,
		stopped:  m.stopped,
		reason:   m.reason,
	}
	for ch, pos := range m.inputPos {
		s.inputPos[ch] = pos
	}
	for ch, out := range m.outputs {
		s.outLens[ch] = len(out)
	}
	s.Threads = make([]Thread, len(m.Threads))
	s.calls = make([][]int, len(m.Threads))
	for i, t := range m.Threads {
		s.Threads[i] = *t
		s.calls[i] = append([]int(nil), t.Calls...)
	}
	return s
}

// Restore resets the machine to a previously captured snapshot.
// Inputs appended after the snapshot remain appended (the cursor
// rewinds, the data does not), which is exactly what replay wants.
//
//scaldift:ignore deadexport ROADMAP item 9 starts replay from a checkpoint
func (m *Machine) Restore(s *Snapshot) {
	copy(m.Mem, s.Mem)
	m.heapNext = s.heapNext
	m.inputSeq = s.inputSeq
	for ch := range m.inputPos {
		delete(m.inputPos, ch)
	}
	for ch, pos := range s.inputPos {
		m.inputPos[ch] = pos
	}
	for ch := range m.outputs {
		if want, ok := s.outLens[ch]; ok {
			m.outputs[ch] = m.outputs[ch][:want]
		} else {
			delete(m.outputs, ch)
		}
	}
	m.steps = s.steps
	m.rng.state = s.rngState
	m.cur = s.cur
	m.budget = s.budget
	m.schedPos = s.schedPos
	m.curSlice = s.curSlice
	m.failed = s.failed
	m.stopped = s.stopped
	m.reason = s.reason
	m.failMsg = ""
	m.Threads = m.Threads[:0]
	for i := range s.Threads {
		t := s.Threads[i]
		t.Calls = append([]int(nil), s.calls[i]...)
		tc := t
		m.Threads = append(m.Threads, &tc)
	}
	m.schedRec = nil
}
