package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// env is the environment stamp every result carries. Records whose
// comparable part differs are not compared.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func stamp(seed int64, seconds int) env {
	return env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
		Seconds:    seconds,
	}
}

func (e env) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d seconds=%d",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Seed, e.Seconds)
}

// comparable is the part of the stamp two records must share to be
// compared: the commit and seed are what a comparison varies.
func (e env) comparable() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s seconds=%d", e.NProc, e.GOMAXPROCS, e.GoVersion, e.Seconds)
}

// commit is the VCS revision the binary was built from or, in a checkout
// without version control, a digest of the Go sources under the working
// directory ("src:" prefix).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:12]
}
