package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// baselineLine matches a heatmap's baseline digest field.
var baselineLine = regexp.MustCompile(`"baseline": "[0-9a-f]{64}"`)

// TestRunPins pins the sha256 of each command's stdout at the default
// seed: any change to an artifact's bytes must be deliberate and
// update its pin.
func TestRunPins(t *testing.T) {
	// v1pins holds the pin an output had while the heatmap named its
	// baseline by a version counter: with its one baseline digest line
	// put back as "baselineVersion": 1, the output must still hash to
	// it.
	v1pins := map[string]string{
		"whatif -grid 400 -grid-format geojson": "69f6952ffbb41c004bbdc05e996ac2de91aede3f4f8ed1b561f988608ebe9d46",
	}
	for _, c := range []struct {
		args []string
		sum  string
	}{
		{[]string{"-table1", "-step3", "-fig4"}, "b3f891adf4613e16e099b7e6bfec4a1cc4da6fdb91a1edb2c5ed636c58f98068"},
		{[]string{"riskreport", "-probes", "3000"}, "68c4d37badba22bf13c073776a4456ea9145f4322e32340e8a26ee7cabeee62f"},
		{[]string{"mitigate", "-k", "2"}, "411be67fd0d0029e415463defe92fe2df2ef6169614973358d56ec34d9263826"},
		{[]string{"resilience", "-k", "2", "-disaster", "29.95,-90.07,350"}, "0ecfdef324023f16cf6179fb01c8d01628985fe6e0aca6b20666ac224b076997"},
		{[]string{"tracegen", "-n", "3000", "-samples", "3", "-text"}, "c9c6169ff6877633ffa9a122d21708d79832744124a9fc21f59bae2554f967ad"},
		{[]string{"whatif", "-preset", "top12-cut", "-json"}, "f4835653ad58367f97ab8116ce3eea5221db0b9e4cf855faa854f49295509aaf"},
		{[]string{"whatif", "-grid", "400", "-grid-format", "geojson"}, "725195c0461a9433ce002fd214fae4087fc103662418c2816a79709a7332fcd4"},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			var out strings.Builder
			if err := run(c.args, &out); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(out.String()))
			if got := hex.EncodeToString(sum[:]); got != c.sum {
				t.Errorf("stdout sha256 = %s, want %s", got, c.sum)
			}
			v1sum, ok := v1pins[strings.Join(c.args, " ")]
			if !ok {
				return
			}
			lines := baselineLine.FindAllString(out.String(), -1)
			if len(lines) != 1 {
				t.Fatalf("output holds %d baseline digest lines, want 1", len(lines))
			}
			sum = sha256.Sum256([]byte(strings.Replace(out.String(), lines[0], `"baselineVersion": 1`, 1)))
			if got := hex.EncodeToString(sum[:]); got != v1sum {
				t.Errorf("stdout with the version-1 baseline line: sha256 = %s, want %s", got, v1sum)
			}
		})
	}
}

func TestRunDefault(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 1") {
		t.Errorf("default output missing Figure 1:\n%s", out.String())
	}
}

func TestRunSelections(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-table1", "-step3", "-fig4"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, marker := range []string{"Table 1", "Step 3", "Figure 4"} {
		if !strings.Contains(out.String(), marker) {
			t.Errorf("missing %q", marker)
		}
	}
}

func TestRunExports(t *testing.T) {
	dir := t.TempDir()
	dataset := filepath.Join(dir, "map.txt")
	var out strings.Builder
	if err := run([]string{"-export", dir, "-dataset", dataset}, &out); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fibermap.geojson", "roads.geojson"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("%s not written: %v", f, err)
		}
	}
	if fi, err := os.Stat(dataset); err != nil || fi.Size() == 0 {
		t.Errorf("dataset not written: %v", err)
	}
}

// TestRunBadFlag: an unknown flag or an out-of-range count is a usage
// error naming the flag, caught before any study is built.
func TestRunBadFlag(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-no-such-flag"}, "-no-such-flag"},
		{[]string{"riskreport", "-probes", "-1"}, "-probes must be"},
		{[]string{"riskreport", "-probes", "0"}, "-probes must be"},
		{[]string{"tracegen", "-n", "-5"}, "-n must be"},
		{[]string{"tracegen", "-n", "0"}, "-n must be"},
		{[]string{"tracegen", "-samples", "-1"}, "-samples must be"},
		{[]string{"mitigate", "-k", "-1"}, "-k must be"},
		{[]string{"mitigate", "-k", "0"}, "-k must be"},
		{[]string{"resilience", "-k", "0"}, "-k must be"},
		{[]string{"resilience", "-k", "-3"}, "-k must be"},
	} {
		err := run(c.args, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want a usage error containing %q", c.args, err, c.want)
		}
	}
}

// stderrOf runs fn with os.Stderr redirected to a file and returns what
// fn wrote there.
func stderrOf(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()
	fn()
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestExitCode: -h on the bare command or any subcommand prints the
// usage and exits 0, without the flag package's "help requested"
// error; every other parse error is reported and exits 1.
func TestExitCode(t *testing.T) {
	for _, args := range [][]string{
		{"-h"}, {"-help"},
		{"riskreport", "-h"}, {"mitigate", "-h"}, {"resilience", "-h"},
		{"tracegen", "-h"}, {"whatif", "-h"},
	} {
		var code int
		stderr := stderrOf(t, func() {
			code = exitCode(run(args, &strings.Builder{}), os.Stderr)
		})
		if code != 0 || !strings.Contains(stderr, "usage: intertubes") || strings.Contains(stderr, "help requested") {
			t.Errorf("%v: exit %d, stderr %q; want 0 and the usage alone", args, code, stderr)
		}
	}
	for _, args := range [][]string{{"-no-such-flag"}, {"tracegen", "-n", "0"}} {
		var code int
		stderr := stderrOf(t, func() {
			code = exitCode(run(args, &strings.Builder{}), os.Stderr)
		})
		if code != 1 || !strings.Contains(stderr, "intertubes: ") {
			t.Errorf("%v: exit %d, stderr %q; want 1 and the error", args, code, stderr)
		}
	}
	if code := exitCode(nil, &strings.Builder{}); code != 0 {
		t.Errorf("success exits %d", code)
	}
}
