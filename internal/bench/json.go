package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Slug derives the BENCH_ file stem from the figure ID: lower-cased,
// with runs of non-alphanumerics collapsed to single dashes
// ("Figure 5" -> "figure-5").
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
// path.
func (f *Figure) WriteJSON(dir string) (string, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+f.Slug()+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("bench: %w", err)
	}
	return path, nil
}
