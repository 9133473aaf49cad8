package sfsrpc

import (
	"testing"

	"repro/internal/xdr"
)

// FuzzResumeLoginArgs feeds the ProcResumeLogin argument decoder — what
// a file server reads from any client on a secure channel — arbitrary
// bytes. It must never panic, and arguments it accepts must survive a
// re-encode unchanged as the fixed 28-byte form. Seeds in
// testdata/fuzz/FuzzResumeLoginArgs.
func FuzzResumeLoginArgs(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var ra ResumeLoginArgs
		if err := xdr.NewDecoder(data).Decode(&ra); err != nil {
			return
		}
		b := xdr.MustMarshal(ra)
		if len(b) != 28 {
			t.Fatalf("re-encoded arguments are %d bytes, want 28", len(b))
		}
		var again ResumeLoginArgs
		if err := xdr.Unmarshal(b, &again); err != nil || again != ra {
			t.Fatalf("arguments changed across a re-encode: %+v -> %+v (%v)", ra, again, err)
		}
	})
}
