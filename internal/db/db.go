// Package db implements the database component of the CBES infrastructure
// (§2): file-backed stores for the system profile (the calibrated network
// latency model) and application profiles, so the expensive off-line
// calibration and profiling phases run once and their results are reused
// across service restarts.
package db

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cbes/internal/netmodel"
	"cbes/internal/profile"
)

// Store is a directory-backed CBES database.
type Store struct {
	dir string
}

// Open creates (if necessary) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"system", "apps"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("db: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) modelPath(cluster string) string {
	return filepath.Join(s.dir, "system", sanitize(cluster)+".model.json")
}

func (s *Store) profilePath(app string) string {
	return filepath.Join(s.dir, "apps", sanitize(app)+".profile.json")
}

// sanitize makes a name safe as a file stem.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

// SaveModel persists a calibrated network model under its cluster name.
func (s *Store) SaveModel(m *netmodel.Model) error {
	return writeAtomic(s.modelPath(m.ClusterName), m.Encode)
}

// LoadModel reads the model calibrated for the named cluster. The caller
// must Attach it to the topology before use.
func (s *Store) LoadModel(cluster string) (*netmodel.Model, error) {
	f, err := os.Open(s.modelPath(cluster))
	if err != nil {
		return nil, fmt.Errorf("db: load model: %w", err)
	}
	defer f.Close()
	return netmodel.Decode(f)
}

// SaveProfile persists an application profile under its app name.
func (s *Store) SaveProfile(p *profile.Profile) error {
	return writeAtomic(s.profilePath(p.App), p.Encode)
}

// LoadProfile reads the profile of the named application.
func (s *Store) LoadProfile(app string) (*profile.Profile, error) {
	f, err := os.Open(s.profilePath(app))
	if err != nil {
		return nil, fmt.Errorf("db: load profile: %w", err)
	}
	defer f.Close()
	return profile.Decode(f)
}

// writeAtomic writes via a temp file + rename so readers never observe a
// torn file.
func writeAtomic(path string, encode func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("db: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := encode(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("db: encode: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("db: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("db: %w", err)
	}
	return nil
}
