package mr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Spill to disk: under a memory budget, the reducer whose copy pushes the
// run over budget writes its in-memory copies to one run file and starts
// over empty. Routing is sequential, so each run holds a consecutive stretch
// of the reducer's copies in source order; reading its runs back in the
// order they were written, then the in-memory remainder, restores exactly
// the copy sequence of an unbounded run.

// ErrCorruptSpill reports a spill run file that does not decode.
var ErrCorruptSpill = errors.New("mr: corrupt spill run")

// spillRun is one run file of a reducer.
type spillRun struct {
	path  string
	bytes int64 // file bytes written
}

// writeSpillRun writes the copies as one run file of uvarint-framed
// (source index, value) records.
func writeSpillRun(dir string, reducer, seq int, refs []Ref) (spillRun, error) {
	var buf []byte
	for _, ref := range refs {
		buf = binary.AppendUvarint(buf, uint64(ref.Index))
		buf = binary.AppendUvarint(buf, uint64(len(ref.Value)))
		buf = append(buf, ref.Value...)
	}
	run := spillRun{path: filepath.Join(dir, fmt.Sprintf("r%06d-%06d.run", reducer, seq)), bytes: int64(len(buf))}
	if err := os.WriteFile(run.path, buf, 0o600); err != nil {
		os.Remove(run.path)
		return run, fmt.Errorf("mr: writing spill run: %w", err)
	}
	return run, nil
}

// readSpillRun appends the copies of one run file to refs. The values alias
// the file contents, read in one piece.
func readSpillRun(run spillRun, refs []Ref) ([]Ref, error) {
	data, err := os.ReadFile(run.path)
	if err != nil {
		return refs, fmt.Errorf("mr: reading spill run: %w", err)
	}
	for len(data) > 0 {
		idx, n := binary.Uvarint(data)
		if n <= 0 || int(idx) < 0 {
			return refs, fmt.Errorf("%w: %s: bad source index", ErrCorruptSpill, run.path)
		}
		data = data[n:]
		size, n := binary.Uvarint(data)
		if n <= 0 || size > uint64(len(data)-n) {
			return refs, fmt.Errorf("%w: %s: bad value length", ErrCorruptSpill, run.path)
		}
		data = data[n:]
		refs = append(refs, Ref{Index: int(idx), Value: data[:size:size]})
		data = data[size:]
	}
	return refs, nil
}
