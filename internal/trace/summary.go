package trace

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"ethkv/internal/rawdb"
)

// Summary is a cheap single-pass digest of a trace: per-class op counts and
// byte volumes, without the per-key state the full analyses keep. Suitable
// for a first look at very large trace files.
type Summary struct {
	Total     uint64
	Hits      uint64 // cache-hit reads (excluded from the paper's censuses)
	ByClass   map[rawdb.Class]*SummaryRow
	KeyBytes  uint64
	ValueData uint64
}

// SummaryRow is one class's counters.
type SummaryRow struct {
	Reads, Writes, Updates, Deletes, Scans uint64
	ValueBytes                             uint64
}

// Total returns the row's op count.
func (r *SummaryRow) Total() uint64 {
	return r.Reads + r.Writes + r.Updates + r.Deletes + r.Scans
}

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	return &Summary{ByClass: make(map[rawdb.Class]*SummaryRow)}
}

// Observe folds one op into the summary.
func (s *Summary) Observe(op Op) {
	if op.Hit {
		s.Hits++
		return
	}
	row := s.ByClass[op.Class]
	if row == nil {
		row = &SummaryRow{}
		s.ByClass[op.Class] = row
	}
	switch op.Type {
	case OpRead:
		row.Reads++
	case OpWrite:
		row.Writes++
	case OpUpdate:
		row.Updates++
	case OpDelete:
		row.Deletes++
	case OpScan:
		row.Scans++
	}
	row.ValueBytes += uint64(op.ValueSize)
	s.KeyBytes += uint64(len(op.Key))
	s.ValueData += uint64(op.ValueSize)
	s.Total++
}

// Summarize streams a whole trace reader into a summary via the batched
// read path.
func Summarize(r *Reader) (*Summary, error) {
	s := NewSummary()
	batch := make([]Op, 4096)
	for {
		n, err := r.NextBatch(batch)
		for i := 0; i < n; i++ {
			s.Observe(batch[i])
		}
		if errors.Is(err, io.EOF) {
			return s, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Render writes the summary as an aligned table.
func (s *Summary) Render(w io.Writer) {
	classes := make([]rawdb.Class, 0, len(s.ByClass))
	for c := range s.ByClass {
		classes = append(classes, c)
	}
	// Busiest first; ties in class order, so the table is deterministic.
	sort.Slice(classes, func(i, j int) bool {
		ti, tj := s.ByClass[classes[i]].Total(), s.ByClass[classes[j]].Total()
		if ti != tj {
			return ti > tj
		}
		return classes[i] < classes[j]
	})
	fmt.Fprintf(w, "%-22s %10s %10s %10s %10s %8s %12s\n",
		"Class", "Reads", "Writes", "Updates", "Deletes", "Scans", "ValueBytes")
	for _, c := range classes {
		row := s.ByClass[c]
		fmt.Fprintf(w, "%-22s %10d %10d %10d %10d %8d %12d\n",
			c, row.Reads, row.Writes, row.Updates, row.Deletes, row.Scans, row.ValueBytes)
	}
	fmt.Fprintf(w, "total ops: %d   data: %.1f MiB keys + %.1f MiB values\n",
		s.Total, float64(s.KeyBytes)/(1<<20), float64(s.ValueData)/(1<<20))
}
