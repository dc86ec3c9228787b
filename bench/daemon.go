package main

import (
	"bufio"
	"context"
	"encoding/json"
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

	"repro/internal/registry"
)

// bootTimeout bounds one daemon boot, recovery included; drainTimeout
// bounds a SIGTERM drain (the daemon's own drain deadline is 5 s).
const (
	bootTimeout  = 90 * time.Second
	drainTimeout = 30 * time.Second
)

// buildDaemon builds ./cmd/hhserverd of the repository at root into dir.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "hhserverd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hhserverd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building hhserverd in %s: %w", root, err)
	}
	return bin, nil
}

// daemon is one running hhserverd child.
type daemon struct {
	cmd  *exec.Cmd
	out  *bufio.Scanner
	base string // http://host:port
	wire string // hhwire TCP address; "" when the listener is off
	done bool
}

// startDaemon execs the daemon and returns once every listener is
// ready, with the time that took: both startup lines printed (after any
// recovery), /healthz answered, and the wire listener accepting.
func startDaemon(bin, cfgPath string, wire bool, hc *http.Client) (*daemon, time.Duration, error) {
	args := []string{"-addr", "127.0.0.1:0", "-config", cfgPath}
	if wire {
		args = append(args, "-wire-addr", "127.0.0.1:0")
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting hhserverd: %w", err)
	}
	d := &daemon{cmd: cmd, out: bufio.NewScanner(stdout)}
	// A hung boot is killed, which ends the scan below with an error.
	watchdog := time.AfterFunc(bootTimeout, func() { _ = cmd.Process.Kill() })
	defer watchdog.Stop()
	fail := func(err error) (*daemon, time.Duration, error) {
		d.kill()
		return nil, 0, err
	}
	addr, err := d.expect("hhserverd listening on ")
	if err != nil {
		return fail(err)
	}
	d.base = "http://" + addr
	if wire {
		if d.wire, err = d.expect("hhserverd wire listening on "); err != nil {
			return fail(err)
		}
	}
	if err := d.ready(hc); err != nil {
		return fail(err)
	}
	return d, time.Since(start), nil
}

// expect reads stdout lines up to the one containing marker and returns
// the word after it.
func (d *daemon) expect(marker string) (string, error) {
	for d.out.Scan() {
		line := d.out.Text()
		if i := strings.Index(line, marker); i >= 0 {
			if f := strings.Fields(line[i+len(marker):]); len(f) > 0 {
				return f[0], nil
			}
		}
	}
	return "", fmt.Errorf("hhserverd exited before printing %q (%v)", marker, d.out.Err())
}

func (d *daemon) ready(hc *http.Client) error {
	resp, err := hc.Get(d.base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	if d.wire != "" {
		c, err := net.DialTimeout("tcp", d.wire, 10*time.Second)
		if err != nil {
			return fmt.Errorf("wire listener: %w", err)
		}
		c.Close()
	}
	return nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill ends the daemon with SIGKILL and waits for it. Safe to repeat.
func (d *daemon) kill() {
	if d.done {
		return
	}
	d.done = true
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

// drain stops the daemon with SIGTERM and returns what it printed while
// draining. An exit status other than 0 is an error.
func (d *daemon) drain() ([]string, error) {
	if d.done {
		return nil, errors.New("daemon already stopped")
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return nil, err
	}
	watchdog := time.AfterFunc(drainTimeout, func() { _ = d.cmd.Process.Kill() })
	defer watchdog.Stop()
	var lines []string
	for d.out.Scan() {
		lines = append(lines, d.out.Text())
	}
	d.done = true
	if err := d.cmd.Wait(); err != nil {
		return lines, fmt.Errorf("drain: %w", err)
	}
	return lines, nil
}

// wireKills parses the kill count off the daemon's drain line.
func wireKills(lines []string) (int, bool) {
	for _, l := range lines {
		var frames, grams, items, kills, drops int
		if _, err := fmt.Sscanf(l, "hhserverd wire drained: %d frames, %d datagrams, %d items, %d kills, %d drops",
			&frames, &grams, &items, &kills, &drops); err == nil {
			return kills, true
		}
	}
	return 0, false
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns a process's user plus system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name, which may hold
	// spaces: state is field 3, utime 14 and stime 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procPeakRSS returns a process's VmHWM in MiB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// summaryStats fetches the benchmark summary's /metricsz block.
func summaryStats(ctx context.Context, hc *http.Client, base string) (registry.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metricsz", nil)
	if err != nil {
		return registry.Stats{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return registry.Stats{}, err
	}
	defer resp.Body.Close()
	var body struct {
		Summaries map[string]registry.Stats `json:"summaries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return registry.Stats{}, fmt.Errorf("metricsz: %w", err)
	}
	st, ok := body.Summaries[summaryName]
	if !ok {
		return st, fmt.Errorf("metricsz: no summary %q", summaryName)
	}
	return st, nil
}

// selfCPU is the benchmark process's own user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
