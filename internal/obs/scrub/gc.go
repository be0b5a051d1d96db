package scrub

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// Disk-budget retention. An oclmon spill root accumulates one directory per
// run forever; GC keeps the root under a byte budget by evicting whole run
// directories, worst-first: quarantined runs go before healthy ones, older
// complete runs before newer, and incomplete runs (crash-recovery pending)
// and caller-kept runs are never touched.

// GCEntry describes one run directory the collector considered.
type GCEntry struct {
	Dir   string `json:"dir"`
	Bytes int64  `json:"bytes"`
	// Quarantined / Incomplete record why the entry sorted where it did.
	Quarantined bool `json:"quarantined,omitempty"`
	Incomplete  bool `json:"incomplete,omitempty"`
	// Evicted reports the directory was removed.
	Evicted bool `json:"evicted,omitempty"`
}

// GCReport is one collection pass's outcome.
type GCReport struct {
	// TotalBytes is the root's size before collection, BytesAfter after.
	TotalBytes int64     `json:"totalBytes"`
	BytesAfter int64     `json:"bytesAfter"`
	Budget     int64     `json:"budget"`
	Entries    []GCEntry `json:"entries,omitempty"`
	Evicted    int       `json:"evicted"`
	// OverBudget reports the root still exceeds the budget after evicting
	// everything evictable (incomplete/kept runs alone exceed it).
	OverBudget bool `json:"overBudget,omitempty"`
}

// DirBytes sums the regular-file bytes under dir (one level — spill run
// directories are flat).
func DirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// GC walks the run directories directly under root and evicts until the total
// fits budget. keep (optional) pins directories the caller still needs — live
// runs holding leases, for instance. Eviction order: quarantined first (oldest
// first), then complete runs oldest-first by manifest mtime. Incomplete runs
// are never evicted: their recovery is pending and their bytes are the only
// copy. A budget <= 0 disables collection.
func GC(root string, budget int64, keep func(dir string) bool) (*GCReport, error) {
	rep := &GCReport{Budget: budget}
	if budget <= 0 {
		return rep, nil
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	type cand struct {
		GCEntry
		mtime    int64
		pinned   bool
		manifest bool
	}
	var cands []cand
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		c := cand{GCEntry: GCEntry{Dir: dir, Bytes: DirBytes(dir)}}
		if keep != nil && keep(dir) {
			c.pinned = true
		}
		if fi, err := os.Stat(filepath.Join(dir, "manifest.json")); err == nil {
			c.manifest = true
			c.mtime = fi.ModTime().UnixNano()
			if complete, err := manifestComplete(dir); err == nil && !complete {
				c.Incomplete = true
			}
		} else {
			// No manifest at all: nothing recorded, nothing recoverable.
			c.mtime = 0
		}
		if _, ok := Quarantined(dir); ok {
			c.Quarantined = true
		}
		rep.TotalBytes += c.Bytes
		cands = append(cands, c)
	}
	rep.BytesAfter = rep.TotalBytes
	if rep.TotalBytes <= budget {
		for _, c := range cands {
			rep.Entries = append(rep.Entries, c.GCEntry)
		}
		return rep, nil
	}
	// Quarantined runs sort first; within a tier, oldest first.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Quarantined != cands[j].Quarantined {
			return cands[i].Quarantined
		}
		return cands[i].mtime < cands[j].mtime
	})
	for i := range cands {
		c := &cands[i]
		if rep.BytesAfter <= budget {
			break
		}
		if c.pinned || (c.Incomplete && !c.Quarantined) {
			continue
		}
		if err := os.RemoveAll(c.Dir); err != nil {
			return rep, err
		}
		c.Evicted = true
		rep.Evicted++
		rep.BytesAfter -= c.Bytes
	}
	rep.OverBudget = rep.BytesAfter > budget
	for _, c := range cands {
		rep.Entries = append(rep.Entries, c.GCEntry)
	}
	return rep, nil
}

// manifestComplete reads just enough of a manifest to see Complete, without
// rejecting the run over validation errors — GC must not evict an incomplete
// run because its manifest was damaged (that is quarantine's call).
func manifestComplete(dir string) (bool, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return false, err
	}
	var peek struct {
		Complete bool `json:"complete"`
	}
	if err := json.Unmarshal(raw, &peek); err != nil {
		return false, err
	}
	return peek.Complete, nil
}
