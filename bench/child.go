package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sqlsheet"
	"sqlsheet/internal/client"
	"sqlsheet/internal/server"
)

// serveMain is the server under test: cmd/sqlsheetd's main minus its flags,
// with the dataset scale as an argument (sqlsheetd -apb hard-codes the
// default scale). It recovers from the WAL directory when that holds a log,
// installs the dataset otherwise, prints one READY line and serves until
// killed.
func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	walDir := fs.String("wal", "", "write-ahead log directory")
	seed := fs.Int64("seed", 1, "dataset seed")
	small := fs.Bool("small", false, "smoke-test dataset")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db := sqlsheet.Open()
	db.Configure(sqlsheet.Config{Workers: 0, Parallel: runtime.NumCPU()})
	if err := db.EnableWAL(*walDir, sqlsheet.SyncGroup); err != nil {
		return err
	}
	if c, _ := db.WALCounters(); c.Replayed == 0 {
		if _, err := db.InstallAPB(scaleFor(*seed, *small)); err != nil {
			return err
		}
	}
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0", MetricsAddr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Printf("READY %s %s\n", srv.Addr(), srv.MetricsAddr())
	// The harness stops the child with SIGKILL, never a drain. Stdin is a
	// pipe the harness holds open: end of input means the harness itself
	// died, and the child must not outlive it.
	_, _ = io.Copy(io.Discard, os.Stdin)
	return fmt.Errorf("harness went away")
}

func scaleFor(seed int64, small bool) sqlsheet.APBScale {
	if small {
		return smallScale(seed)
	}
	return fullScale(seed)
}

// child is one running server process.
type child struct {
	cmd         *exec.Cmd
	addr        string
	metricsAddr string
}

// spawn starts the bench binary in serve mode on walDir and waits for its
// READY line, i.e. until the dataset is installed (or the log replayed) and
// the listener accepts.
func spawn(walDir string, seed int64, small bool) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"serve", "-wal", walDir, "-seed", strconv.FormatInt(seed, 10)}
	if small {
		args = append(args, "-small")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	if _, err := cmd.StdinPipe(); err != nil { // held open for the child's lifetime
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		c.kill()
		return nil, fmt.Errorf("server child exited before READY: %w", err)
	}
	if _, err := fmt.Sscanf(line, "READY %s %s", &c.addr, &c.metricsAddr); err != nil {
		c.kill()
		return nil, fmt.Errorf("bad READY line %q: %w", line, err)
	}
	return c, nil
}

// kill stops the child with SIGKILL and waits until it has ended.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait() // reports the kill; the exit status carries nothing else
}

func (c *child) dial(n int) ([]*client.Client, error) {
	conns := make([]*client.Client, n)
	for i := range conns {
		cl, err := client.Dial(c.addr)
		if err != nil {
			return nil, err
		}
		conns[i] = cl
	}
	return conns, nil
}

// cpuSeconds is the child's user+system CPU time so far, summed over its
// live threads from /proc/<pid>/task/*/schedstat (nanoseconds on the run
// queue's clock; /proc/<pid>/stat only counts 10 ms ticks). The Go runtime
// keeps its threads, so none of the time is lost to thread exit.
func (c *child) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", c.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns float64
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		f := strings.Fields(string(data))
		if len(f) < 1 {
			return 0, fmt.Errorf("empty schedstat for task %s", t.Name())
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return ns / 1e9, nil
}

// peakRSSMB is the child's VmHWM, the high-water mark of its resident set.
func (c *child) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// metrics fetches the child's /metrics document.
func (c *child) metrics() (*server.Snapshot, error) {
	resp, err := http.Get("http://" + c.metricsAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var snap server.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// fsName names the filesystem holding dir, printed as wal_fs: group-commit
// latency is the host filesystem's, so a reader comparing two hosts needs
// to know what it was.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// timeIt runs fn and returns how long it took in seconds.
func timeIt(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}
