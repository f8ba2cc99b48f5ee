package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// manifestSeg is one segment's manifest entry. Entries are appended
// in segment-creation order; FirstSeq/LastSeq record where the
// segment's chunks sit in the store's global append order. The sizing
// fields are written at seal time and are zero while Sealed is false
// (a reader learns an unsealed segment's contents by scanning it).
type manifestSeg struct {
	File     string `json:"file"`
	TID      int    `json:"tid"`
	Sealed   bool   `json:"sealed"`
	Chunks   int    `json:"chunks"`
	BaseN    uint64 `json:"base_n"`
	LastN    uint64 `json:"last_n"`
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
	Bytes    int64  `json:"bytes"`
	// SealedAt is the seal wall-clock time (unix seconds); age-based
	// retention keys off it. Zero on unsealed entries and on stores
	// written before retention existed (which MaxAge then never trims).
	SealedAt int64 `json:"sealed_at,omitempty"`
}

// manifestTrim records, per thread, what retention has deleted: every
// segment file with seq < MinSeq is gone (readers must not adopt a
// stray with a smaller seq — it is a crash orphan awaiting unlink),
// and every instance below Lo may be gone (slicers report hitting Lo
// exactly like the old ring's window edge). Chunks/Bytes accumulate
// across trims for observability.
type manifestTrim struct {
	TID    int    `json:"tid"`
	MinSeq int    `json:"min_seq"`
	Lo     uint64 `json:"lo"`
	Chunks int    `json:"chunks"`
	Bytes  int64  `json:"bytes"`
}

// manifest is the store's root metadata document, in the
// header/version-guarded style of Sia's persist layer.
type manifest struct {
	Header  string `json:"header"`
	Version string `json:"version"`
	Closed  bool   `json:"closed"`
	// Generation counts manifest rewrites: 0 at Create, bumped on
	// every seal and at Close. A follower compares generations to
	// detect structural change (new or sealed segments) without
	// diffing the segment list.
	Generation uint64        `json:"generation,omitempty"`
	Segments   []manifestSeg `json:"segments"`
	// Trimmed holds the per-thread retention records, sorted by TID.
	// Generation is bumped on every trim, so a follower that sees the
	// same generation may assume Trimmed is unchanged too.
	Trimmed []manifestTrim `json:"trimmed,omitempty"`
}

// writeManifest atomically replaces dir's manifest (temp file +
// rename), so a crash mid-update leaves the previous manifest intact.
func writeManifest(dir string, m *manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, manifestName+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, manifestName))
}

// Status reports whether dir holds a trace store at all (a valid
// manifest exists) and, if so, whether its writer has closed. The
// distinction lets a live-following registry tell "still recording"
// (isStore, !closed) apart from "not a store here" (!isStore); a
// missing or foreign manifest is the latter, not a failure.
func Status(dir string) (isStore, closed bool, err error) {
	m, err := readManifest(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return false, false, nil
		}
		// Corrupt or foreign manifests are "not a store", but surface
		// genuine I/O problems (permissions etc).
		var perr *os.PathError
		if errors.As(err, &perr) {
			return false, false, err
		}
		return false, false, nil
	}
	return true, m.Closed, nil
}

// readManifest loads and validates dir's manifest.
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: corrupt manifest: %w", err)
	}
	if m.Header != manifestHeader {
		return nil, fmt.Errorf("store: wrong manifest header %q", m.Header)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("store: unsupported manifest version %q", m.Version)
	}
	return &m, nil
}
