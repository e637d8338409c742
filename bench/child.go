package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles ./cmd/gpmld from the module at root into outDir.
func buildServer(root, outDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "gpmld"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gpmld")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/gpmld: %v\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port. gpmld does not
// report the port it bound, so `-addr :0` is no use; the small window
// between closing this listener and gpmld binding is covered by the
// readiness poll failing loudly.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// child is a running gpmld process.
type child struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after exited
	ready  time.Duration // process start → /healthz ok
	since  time.Time     // when /healthz first answered ok
}

const (
	readyTimeout = 60 * time.Second
	handlerGrace = 100 * time.Millisecond
)

// startChild starts gpmld with its default flags (plus -graph when
// graphJSON is set) on a free loopback port and polls /healthz until it
// answers ok. A process that exits or stays unready is a set-up failure.
func startChild(bin, graphJSON string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	c := &child{addr: "127.0.0.1:" + strconv.Itoa(port), exited: make(chan struct{})}
	args := []string{"-addr", c.addr}
	if graphJSON != "" {
		args = append(args, "-graph", graphJSON)
	}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stderr = &c.stderr
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for time.Since(start) < readyTimeout {
		select {
		case <-c.exited:
			return nil, fmt.Errorf("gpmld exited during start-up: %v\n%s", c.err, c.stderr.String())
		default:
		}
		if resp, err := hc.Get("http://" + c.addr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.ready, c.since = time.Since(start), time.Now()
				return c, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.kill()
	return nil, fmt.Errorf("gpmld not ready after %v\n%s", readyTimeout, c.stderr.String())
}

func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.exited
}

// stop sends SIGTERM and requires the graceful path: exit status 0 and
// the "stopped" line gpmld prints after its drain.
func (c *child) stop() error {
	// gpmld installs its signal handler after it starts listening, so a
	// SIGTERM in the first moments after /healthz answers meets the default
	// action and kills it ungracefully. Give a freshly started one time.
	time.Sleep(time.Until(c.since.Add(handlerGrace)))
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-c.exited:
	case <-time.After(30 * time.Second):
		c.kill()
		return errors.New("gpmld did not exit within 30s of SIGTERM")
	}
	if c.err != nil {
		return fmt.Errorf("gpmld exit: %v\n%s", c.err, c.stderr.String())
	}
	if !strings.Contains(c.stderr.String(), "gpmld: stopped") {
		return fmt.Errorf("gpmld exited 0 without its \"stopped\" line\n%s", c.stderr.String())
	}
	return nil
}

// peakRSSMB reads a process's VmHWM (peak resident set) in MiB.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stolenShare is the share of this machine's CPU time the hypervisor gave
// to other guests since the jiffy counts in before (nil: since boot), and
// the counts now. On a shared box it is what separates a slow run from a
// slow program; it goes into the run's notes, not its metrics.
func stolenShare(before []float64) (share float64, now []float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, nil
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, nil
	}
	var total, steal float64
	for i, s := range f[1:9] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, nil
		}
		now = append(now, v)
		if before != nil {
			v -= before[i]
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return ratio(steal, total), now
}

// noteStolen starts watching the stolen share; the function it returns
// adds it to the run's notes.
func noteStolen(o *runOutput) func() {
	_, before := stolenShare(nil)
	return func() {
		stolen, _ := stolenShare(before)
		o.notef("the hypervisor gave %.1f %% of the CPU to other guests while this ran", stolen*100)
	}
}

// cpuSeconds reads a process's user+system CPU time from /proc/pid/stat.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat cpu fields")
	}
	const clockTicks = 100 // USER_HZ on every Linux Go supports
	return (ut + st) / clockTicks, nil
}
