package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// environment stamps a result with the system it was taken on: a
// performance number means nothing without it (arXiv 2304.01676).
type environment struct {
	GoVersion    string  `json:"go_version"`
	GOOS         string  `json:"goos"`
	GOARCH       string  `json:"goarch"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NProc        int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	Commit       string  `json:"commit"`
	Dirty        bool    `json:"dirty"`
	Seed         int64   `json:"seed"`
	Clients      int     `json:"clients"`
	TimedSeconds float64 `json:"timed_seconds"`
}

func currentEnvironment(seed int64, clients int, seconds float64) environment {
	env := environment{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Commit:       "unknown", // a checkout that is not a git repository carries no stamp
		Seed:         seed,
		Clients:      clients,
		TimedSeconds: seconds,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				env.Dirty = s.Value == "true"
			}
		}
	}
	return env
}

// cpuModel reads the first "model name" of /proc/cpuinfo; elsewhere the
// model is reported as unknown rather than guessed.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
