package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

var (
	elapsedRe  = regexp.MustCompile(` [0-9.]+[µm]?s$`)
	peakLiveRe = regexp.MustCompile(`peak live nodes \d+`)
)

// engineRow returns the result row of meth in iciverify's output and
// its "peak live nodes" count, with the wall times masked.
func engineRow(t *testing.T, out, meth string) string {
	t.Helper()
	lines := strings.Split(out, "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, meth+" ") && i+1 < len(lines) {
			return elapsedRe.ReplaceAllString(line, "") + "; " + peakLiveRe.FindString(lines[i+1])
		}
	}
	t.Fatalf("no %s row in output:\n%s", meth, out)
	return ""
}

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("iciverify %v exited %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	return stdout.String()
}

// TestEnginesDoNotShareAManager: a later engine under -engines must
// report what it reports alone (mem=, nodes, peak live nodes), not a
// peak that includes the earlier engines' nodes.
func TestEnginesDoNotShareAManager(t *testing.T) {
	solo := runOK(t, "-model", "filter", "-size", "4", "-method", "XICI")
	multi := runOK(t, "-model", "filter", "-size", "4", "-engines", "Bkwd,XICI")
	want := engineRow(t, solo, "XICI")
	if got := engineRow(t, multi, "XICI"); got != want {
		t.Fatalf("XICI after Bkwd: %q\nXICI alone:      %q", got, want)
	}
}
