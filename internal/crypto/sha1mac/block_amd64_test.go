package sha1mac

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestCPUIDMatchesKernel: what CPUID tells blockSHANI's probe is what
// the kernel tells /proc/cpuinfo, flag by flag. A probe reading the
// wrong leaf or bit fails here on any Linux host, with or without the
// extensions.
func TestCPUIDMatchesKernel(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux's")
	}
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags map[string]bool
	for _, line := range strings.Split(string(raw), "\n") {
		name, list, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(name) == "flags" {
			flags = map[string]bool{}
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if flags == nil {
		t.Fatal("/proc/cpuinfo has no flags line")
	}
	sha, ssse3, sse41 := x86Features()
	for _, c := range []struct {
		flag  string
		cpuid bool
	}{{"sha_ni", sha}, {"ssse3", ssse3}, {"sse4_1", sse41}} {
		if c.cpuid != flags[c.flag] {
			t.Errorf("CPUID says %s = %v, /proc/cpuinfo says %v", c.flag, c.cpuid, flags[c.flag])
		}
	}
	if want := flags["sha_ni"] && flags["ssse3"] && flags["sse4_1"]; useSHANI != want {
		t.Errorf("useSHANI = %v, /proc/cpuinfo flags say %v", useSHANI, want)
	}
}
