package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = f()
	os.Stdout = stdout
	w.Close()
	s := <-out
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, s)
	}
	return s
}

// withoutTiming drops the line that reports the analysis time.
func withoutTiming(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.HasPrefix(line, "analysis of ") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestAnalyzeInfersBugFromTraceHeader round-trips a bug trace: `analyze
// -in` without -bug must take the bug from the trace header and print what
// `analyze -in -bug` prints.
func TestAnalyzeInfersBugFromTraceHeader(t *testing.T) {
	f := filepath.Join(t.TempDir(), "bug.trace")
	capture(t, func() error {
		return cmdTrace([]string{"-bug", "mysql-3596", "-period", "10000", "-seed", "1", "-o", f})
	})
	inferred := capture(t, func() error { return cmdAnalyze([]string{"-in", f}) })
	named := capture(t, func() error { return cmdAnalyze([]string{"-in", f, "-bug", "mysql-3596"}) })
	if !strings.Contains(inferred, "analysis of "+f) {
		t.Fatalf("analyze printed no analysis line:\n%s", inferred)
	}
	if withoutTiming(inferred) != withoutTiming(named) {
		t.Errorf("analyze without -bug differs from analyze -bug mysql-3596:\n%s\nvs\n%s", inferred, named)
	}
}
