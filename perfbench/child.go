package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// peak_rss_mb is measured on file checks run in fresh child processes,
// the way a CLI invocation runs them: a child holds only its check, while
// this process also hosts the service, both clients and every payload,
// and its peak moved by ±15% with GC timing.

type childArgs struct {
	path, format, mode string
}

// childResult is what a child prints: the verdict and the child's own
// peak RSS.
type childResult struct {
	Verdict Verdict
	PeakKiB int64
}

func runChild(c childArgs, stdout, stderr io.Writer) int {
	in := &input{spec: inputSpec{name: c.path, format: c.format}, path: c.path}
	v, _, err := checkFile(c.mode, in, nil, 0)
	var peak int64
	if err == nil {
		peak, err = vmHWM()
	}
	if err == nil {
		err = json.NewEncoder(stdout).Encode(childResult{Verdict: v, PeakKiB: peak})
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// checkInChild checks in's file through one CLI path in a child process.
func checkInChild(mode string, in *input) (childResult, error) {
	var cr childResult
	exe, err := os.Executable()
	if err != nil {
		return cr, err
	}
	out, err := exec.Command(exe, "-child", in.path, "-child-format", in.spec.format, "-child-mode", mode).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("%w: %s", err, strings.TrimSpace(string(ee.Stderr)))
		}
		return cr, fmt.Errorf("%s check of %s: %w", mode, in.spec.name, err)
	}
	if err := json.Unmarshal(out, &cr); err != nil {
		return cr, fmt.Errorf("%s check of %s: %w", mode, in.spec.name, err)
	}
	return cr, nil
}

// vmHWM reads this process's peak resident set size in KiB. It is read
// from /proc because ru_maxrss would not do: Linux carries the parent's
// resident size at exec time into the child's ru_maxrss.
func vmHWM() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
