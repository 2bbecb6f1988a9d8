package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/zoo"
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

// TestPaperFamiliesRunAtZooDefaults: with no size flags, each paper
// family runs at its zoo entry's defaults. A flat -size default of 5
// used to override them: filter exited 2 (its depth must be a power of
// two) and network, coherence and link ran at size 5.
func TestPaperFamiliesRunAtZooDefaults(t *testing.T) {
	for _, model := range []string{"fifo", "network", "filter", "pipeline", "coherence", "link"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-model", model}, &stdout, &stderr); code == 2 {
			t.Errorf("-model %s exited 2: %s", model, stderr.String())
			continue
		}
		mo, err := zoo.Build(model, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := mo.MustInstantiate(bdd.New())
		want := fmt.Sprintf("model %s  (%d state bits, %d input bits)\n",
			p.Name, p.Machine.StateBits(), p.Machine.InputBits())
		if !strings.HasPrefix(stdout.String(), want) {
			t.Errorf("-model %s: got\n%swant header %q", model, stdout.String(), want)
		}
	}
}

// TestEventsWriteErrorReported: a failing -events log is reported once
// on stderr instead of being dropped silently.
func TestEventsWriteErrorReported(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("needs /dev/full")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-model", "fifo", "-size", "3", "-engines", "Fwd,XICI", "-events", "/dev/full"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if n := strings.Count(stderr.String(), "-events: "); n != 1 {
		t.Fatalf("%d -events errors on stderr, want 1:\n%s", n, stderr.String())
	}
}
