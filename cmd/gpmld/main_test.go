//go:build unix

package main

import (
	"bytes"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"gpml/internal/dataset"
)

// buildGpmld compiles the command once per test binary.
func buildGpmld(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gpmld")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves a loopback port and releases it for the child.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// TestSignalDuringStartupDrains pins the start-up signal contract: a
// SIGTERM that arrives the moment /healthz first answers — 200 on a
// snapshot server, 503 "recovering" on a durable one still importing its
// boot graph — is a graceful stop (exit 0, the "stopped" line), not a
// kill. The durable case is the wide window: the listener is up for the
// whole WAL replay and import.
func TestSignalDuringStartupDrains(t *testing.T) {
	bin := buildGpmld(t)
	graphFile := filepath.Join(t.TempDir(), "snb.json")
	f, err := os.Create(graphFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.SNB(dataset.SNBConfig{ScaleFactor: 0.1, Seed: 42}).WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		args       []string
		wantStatus int // the /healthz status to signal on; 0 = the first answer of any kind
	}{
		{"snapshot-first-200", nil, http.StatusOK},
		{"durable-while-recovering", []string{"-graph", graphFile, "-data-dir", filepath.Join(t.TempDir(), "data"), "-fsync", "none"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := freeAddr(t)
			var stderr bytes.Buffer
			cmd := exec.Command(bin, append([]string{"-addr", addr}, tc.args...)...)
			cmd.Stderr = &stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			exited := make(chan error, 1)
			go func() { exited <- cmd.Wait() }()

			hc := &http.Client{Timeout: time.Second}
			deadline := time.Now().Add(20 * time.Second)
			for signalled := false; !signalled; {
				if time.Now().After(deadline) {
					cmd.Process.Kill()
					t.Fatalf("no /healthz answer in time\n%s", stderr.String())
				}
				resp, err := hc.Get("http://" + addr + "/healthz")
				if err != nil {
					time.Sleep(time.Millisecond)
					continue
				}
				resp.Body.Close()
				if tc.wantStatus == 0 || resp.StatusCode == tc.wantStatus {
					if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
						t.Fatal(err)
					}
					signalled = true
				}
			}
			select {
			case err := <-exited:
				if err != nil {
					t.Errorf("exit: %v, want 0\n%s", err, stderr.String())
				}
			case <-time.After(30 * time.Second):
				cmd.Process.Kill()
				t.Fatalf("gpmld did not exit after SIGTERM\n%s", stderr.String())
			}
			if !strings.Contains(stderr.String(), "gpmld: stopped") {
				t.Errorf("no \"gpmld: stopped\" line\n%s", stderr.String())
			}
		})
	}
}
