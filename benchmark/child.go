package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// Each sample of the figure and protected-memory workloads runs in a fresh
// child process: the program keeps process-wide caches (the checkpoint
// cache has no reset), so only a new process is really cold. A child
// prints "ready" once its set-up is done and its result as the last line
// of its standard output.

const readyLine = "ready"

// childMain runs one child of the given kind and returns its exit code.
func childMain(kind string, args []string) int {
	var err error
	switch kind {
	case "figures":
		err = figuresChild(args)
	case "pmem":
		err = pmemChild(args)
	default:
		err = fmt.Errorf("unknown child kind %q", kind)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child %s: %v\n", kind, err)
		return 1
	}
	return 0
}

// childReport writes a child's result line.
func childReport(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// childOutcome is what the parent learns from one child process.
type childOutcome struct {
	setup time.Duration // exec until the "ready" line
	rssMB float64
}

// runChild starts a child of the given kind, times it to its ready line,
// waits for it and decodes its result line into out (nil for children
// that exit right after set-up).
func runChild(ctx context.Context, kind string, args []string, out any) (childOutcome, error) {
	var oc childOutcome
	self, err := os.Executable()
	if err != nil {
		return oc, err
	}
	cmd := exec.CommandContext(ctx, self, append([]string{"child", kind}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return oc, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return oc, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<16), 64<<20)
	var last string
	ready := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !ready && line == readyLine {
			oc.setup = time.Since(start)
			ready = true
			continue
		}
		if line != "" {
			last = line
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return oc, fmt.Errorf("child %s: %w", kind, err)
	}
	if scanErr != nil {
		return oc, fmt.Errorf("child %s: %w", kind, scanErr)
	}
	if !ready {
		return oc, fmt.Errorf("child %s never became ready", kind)
	}
	oc.rssMB = maxRSSMB(cmd.ProcessState)
	if out != nil {
		if err := json.Unmarshal([]byte(last), out); err != nil {
			return oc, fmt.Errorf("child %s result %q: %w", kind, last, err)
		}
	}
	return oc, nil
}
