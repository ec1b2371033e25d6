// Package leakcheck fails a test binary whose tests leak goroutines or spill
// directories. Call it from TestMain:
//
//	func TestMain(m *testing.M) { os.Exit(leakcheck.Run(m)) }
package leakcheck

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settle is how long goroutines get to exit after the last test.
const settle = 5 * time.Second

// Run runs the tests with TMPDIR pointed at a private directory, so spill
// directories created under the default temp dir land there. It returns the
// tests' exit code, or 1 when the tests passed but goroutines started by them
// are still running after settle, or an "mr-spill-*" directory remains
// anywhere under that directory.
func Run(m *testing.M) int {
	tmp, err := os.MkdirTemp("", "leakcheck-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "leakcheck:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	old, hadOld := os.LookupEnv("TMPDIR")
	os.Setenv("TMPDIR", tmp)
	defer func() {
		if hadOld {
			os.Setenv("TMPDIR", old)
		} else {
			os.Unsetenv("TMPDIR")
		}
	}()

	start := runtime.NumGoroutine()
	code := m.Run()
	if code != 0 {
		return code
	}
	if err := goroutinesSettle(start); err != nil {
		fmt.Fprintln(os.Stderr, "leakcheck:", err)
		return 1
	}
	if left := spillDirs(tmp); len(left) > 0 {
		fmt.Fprintf(os.Stderr, "leakcheck: spill directories left behind: %v\n", left)
		return 1
	}
	return 0
}

// goroutinesSettle waits for the goroutine count to fall back to start.
func goroutinesSettle(start int) error {
	deadline := time.Now().Add(settle)
	for {
		n := runtime.NumGoroutine()
		if n <= start {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("%d goroutines still running after the tests, %d before them:\n%s", n, start, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// spillDirs lists the "mr-spill-*" directories under root.
func spillDirs(root string) []string {
	var left []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && strings.HasPrefix(d.Name(), "mr-spill-") {
			left = append(left, path)
			return filepath.SkipDir
		}
		return nil
	})
	return left
}
