package backends

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"

	"ethkv/internal/faultfs"
)

// layoutFile holds a store directory's layout record. Without it, a reopen
// under another shard count looks for most keys on the wrong shard, and one
// under another kind or policy opens empty directories beside the data:
// either way Open succeeds and the keys silently vanish.
const layoutFile = "LAYOUT.json"

// layout is what decides where a key's bytes live under a store directory:
// the kind, the shard count and, for hybrid only, the policy's routes,
// default and class assignments. Cache and compaction budgets are not layout.
type layout struct {
	Kind    string            `json:"kind"`
	Shards  int               `json:"shards"`
	Routes  map[string]string `json:"routes,omitempty"`  // route name -> kind
	Default string            `json:"default,omitempty"` // route of unlisted classes
	Classes map[string]string `json:"classes,omitempty"` // class -> route, default route omitted
}

// layoutOf is the layout Open builds for kind and opts: 0 and 1 shards are
// one layout, and so are a nil Policy and DefaultHybridPolicy.
func layoutOf(kind string, opts Options) layout {
	l := layout{Kind: kind, Shards: max(opts.Shards, 1)}
	if kind != "hybrid" {
		return l
	}
	p := opts.Policy
	if p == nil {
		p = DefaultHybridPolicy()
	}
	l.Default, l.Routes, l.Classes = p.Default, map[string]string{}, map[string]string{}
	for name, spec := range p.Routes {
		l.Routes[name] = spec.Kind
	}
	for class, route := range p.Classes {
		if route != p.Default {
			l.Classes[class] = route
		}
	}
	return l
}

// checkLayout compares dir's layout record with want, reporting whether
// there is one. A record that differs is an error naming the first field
// that differs.
func checkLayout(dir string, want layout) (recorded bool, err error) {
	path := filepath.Join(dir, layoutFile)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	var have layout
	if err := json.Unmarshal(data, &have); err != nil {
		return false, fmt.Errorf("backends: %s: %w", path, err)
	}
	field, was, now := "", any(nil), any(nil)
	switch {
	case have.Kind != want.Kind:
		field, was, now = "kind", have.Kind, want.Kind
	case have.Shards != want.Shards:
		field, was, now = "shards", have.Shards, want.Shards
	case !maps.Equal(have.Routes, want.Routes):
		field, was, now = "routes", have.Routes, want.Routes
	case have.Default != want.Default:
		field, was, now = "default", have.Default, want.Default
	case !maps.Equal(have.Classes, want.Classes):
		field, was, now = "classes", have.Classes, want.Classes
	default:
		return true, nil
	}
	return true, fmt.Errorf("backends: %s holds a store with %s %v; refusing to open it with %s %v",
		dir, field, was, field, now)
}

// writeLayout records l in dir durably: a synced temporary file renamed
// over the record, then the directory synced so the rename survives a crash.
func writeLayout(dir string, l layout) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, layoutFile)
	if err := faultfs.WriteFileSync(faultfs.OS, path+".tmp", append(data, '\n')); err != nil {
		return err
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
