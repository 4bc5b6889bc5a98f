package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bristleblocks/internal/obs/prom"
)

// daemon is one bbd child process.
type daemon struct {
	cmd   *exec.Cmd
	base  string   // http://127.0.0.1:<port>
	flags []string // every flag passed; the rest are bbd's defaults
}

// startDaemon execs bbd with default flags plus a loopback -addr and the
// given fresh -cache-dir, and returns once /healthz answers ok.
func startDaemon(bin, cacheDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{base: "http://" + addr, flags: []string{"-addr", addr, "-cache-dir", cacheDir}}
	d.cmd = exec.Command(bin, d.flags...)
	// The daemon dies with the benchmark, even when the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bbd: %w", err)
	}
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("bbd did not answer /healthz within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, as an operator would, and waits
// for it to exit, killing it after 30s.
func (d *daemon) stop() {
	// A daemon that already exited is reaped by Wait below.
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // the exit status says nothing the benchmark checks
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a loopback port: %w", err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// scraped are the /metrics counters the per-layer metrics difference
// across the timed window.
var scraped = []string{
	"bbd_cache_hits_total",
	"bbd_cache_misses_total",
	"bbd_compiles_total",
	"bbd_runtime_gc_cycles_total",
	"bbd_runtime_alloc_bytes_total",
}

// scrape reads the scraped counters from the daemon's /metrics page. bbd
// re-reads runtime counters at most once a second, so scrapes must be
// more than a second apart to see fresh values.
func (d *daemon) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	page, err := prom.Parse(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	out := make(map[string]float64, len(scraped))
	for _, name := range scraped {
		v, ok := page.Get(name)
		if !ok {
			return nil, fmt.Errorf("bbd /metrics has no %s", name)
		}
		out[name] = v
	}
	return out, nil
}

// userHZ is the clock-tick rate of /proc/<pid>/stat times (USER_HZ,
// fixed at 100 by the Linux ABI).
const userHZ = 100

// cpuTime returns the daemon's user+system CPU time, all threads.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3;
	// utime and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", d.cmd.Process.Pid)
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / userHZ, nil
}

// peakRSSKB returns the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSKB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
