package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/netsim"
	"repro/internal/nfs"
)

// jsonFigure is the on-disk schema of a BENCH_*.json file. The schema
// is documented in EXPERIMENTS.md; keep the two in sync.
type jsonFigure struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// Quick records whether the figure ran with shrunken workloads,
	// so trajectory tooling never compares quick rows to full rows.
	Quick bool      `json:"quick"`
	Rows  []jsonRow `json:"rows"`
	// Counters carries each remote stack's server-side NFS counter
	// snapshot (per-procedure calls and latency, write stability,
	// COMMIT batches, transport totals), keyed by stack label.
	Counters map[string]nfs.ServerStats `json:"counters,omitempty"`
	// Disk carries what the era disk model charged under each stack
	// (media reads and writes, synchronous updates by cause).
	Disk map[string]netsim.DiskCharges `json:"disk,omitempty"`
}

type jsonRow struct {
	Stack string  `json:"stack"`
	Phase string  `json:"phase"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Paper is the paper's reference number in the same unit, or 0
	// when the paper gives only a bar chart.
	Paper float64 `json:"paper,omitempty"`
	RPCs  uint64  `json:"rpcs"`
}

// Slug derives the BENCH_ file stem from the figure ID: lower-cased,
// with runs of non-alphanumerics collapsed to single dashes
// ("Figure 9 (write-behind ablation)" -> "figure-9-write-behind-ablation").
func (f *Figure) Slug() string {
	out := make([]byte, 0, len(f.ID))
	dash := false
	for i := 0; i < len(f.ID); i++ {
		c := f.ID[i]
		switch {
		case c >= 'A' && c <= 'Z':
			c += 'a' - 'A'
			fallthrough
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			out = append(out, c)
			dash = false
		default:
			if !dash && len(out) > 0 {
				out = append(out, '-')
				dash = true
			}
		}
	}
	for len(out) > 0 && out[len(out)-1] == '-' {
		out = out[:len(out)-1]
	}
	return string(out)
}

// WriteJSON writes the figure to dir/BENCH_<slug>.json and returns the
// path. quick must reflect the Options the figure ran with.
func (f *Figure) WriteJSON(dir string, quick bool) (string, error) {
	jf := jsonFigure{ID: f.ID, Title: f.Title, Quick: quick, Counters: f.Counters, Disk: f.Disk}
	for _, r := range f.Rows {
		jf.Rows = append(jf.Rows, jsonRow{
			Stack: r.Stack, Phase: r.Phase,
			Value: r.Value, Unit: r.Unit,
			Paper: r.Paper, RPCs: r.RPCs,
		})
	}
	data, err := json.MarshalIndent(&jf, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+f.Slug()+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("bench: %w", err)
	}
	return path, nil
}
