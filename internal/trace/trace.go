// Package trace implements a compact binary record/replay format for CTVG
// traces (per-round communication graphs plus cluster hierarchies).
//
// Recorded traces make experiments forensically replayable: an adversary's
// run can be frozen to disk, inspected with cmd/hinettrace, and replayed
// bit-identically against any protocol. The format serialises a
// ctvg.DeltaTrace window by window — one base state plus one change set per
// stability window — so a file is O(E + changes), independent of how many
// rounds each window lasts:
//
//	magic "CTVG"  version u8 (3)
//	n varint, rounds varint
//	base edges: m varint, then m pairs (u varint, v varint)
//	base roles: n role bytes
//	base clusters: n varints (value+1, so NoCluster=-1 encodes as 0)
//	window count varint (windows after the base one), then per window:
//	  start round varint
//	  removed edges: count varint, then pairs
//	  added edges: count varint, then pairs
//	  role changes: count varint, then (node varint, role u8, cluster+1 varint)
//
// Edge lists are canonical (u < v) and sorted by (u, v); role changes are
// sorted by node. Versions 1 and 2 (per-round snapshot and per-round diff
// encodings) are no longer read.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/ctvg"
	"repro/internal/graph"
)

const (
	magic   = "CTVG"
	version = 3
	// limit caps n and rounds so a corrupt header cannot request an absurd
	// allocation before the body has been read.
	limit = 1 << 24
)

// Write serialises a recorded trace. It moves t's cursor, so t must not be
// in use by a concurrent run.
func Write(w io.Writer, t *ctvg.DeltaTrace) error {
	// bufio.Writer errors are sticky: after a failed write every later
	// write is dropped and Flush reports the error.
	bw := bufio.NewWriter(w)
	var scratch [binary.MaxVarintLen64]byte
	uvarint := func(x int) {
		bw.Write(scratch[:binary.PutUvarint(scratch[:], uint64(x))])
	}
	edges := func(es []graph.Edge) {
		uvarint(len(es))
		for _, e := range es {
			uvarint(e.U)
			uvarint(e.V)
		}
	}
	bw.WriteString(magic)
	bw.WriteByte(version)
	n := t.N()
	uvarint(n)
	uvarint(t.Len())
	edges(t.At(0).Edges())
	h := t.HierarchyAt(0)
	for v := 0; v < n; v++ {
		bw.WriteByte(byte(h.Role[v]))
	}
	for v := 0; v < n; v++ {
		uvarint(h.Cluster[v] + 1)
	}
	uvarint(t.Windows() - 1)
	for i := 1; i < t.Windows(); i++ {
		start, gd, hd := t.Window(i)
		uvarint(start)
		edges(gd.Remove)
		edges(gd.Add)
		uvarint(len(hd))
		for _, c := range hd {
			uvarint(c.V)
			bw.WriteByte(byte(c.NewRole))
			uvarint(c.NewCluster + 1)
		}
	}
	return bw.Flush()
}

// decoder reads the body of a trace. Every value read from the file is
// range-checked before use: ctvg.NewDeltaTrace and the delta appliers
// panic on inconsistent input, so nothing unchecked may reach them. Its
// errors carry no position; Read wraps them with one.
type decoder struct {
	br *bufio.Reader
	n  int
}

// uvarint reads one varint and rejects values above max.
func (d *decoder) uvarint(max uint64) (int, error) {
	x, err := binary.ReadUvarint(d.br)
	if err != nil {
		return 0, noEOF(err)
	}
	if x > max {
		return 0, fmt.Errorf("value %d out of range (max %d)", x, max)
	}
	return int(x), nil
}

// edges reads one edge list. Edges must be canonical (u < v, so no
// self-loops), strictly increasing (sorted, no duplicates) and in range.
// With g non-nil, every edge must be present in g (want true) or absent
// from it (want false).
func (d *decoder) edges(g *graph.Graph, want bool) ([]graph.Edge, error) {
	m, err := d.uvarint(uint64(d.n) * uint64(d.n-1) / 2)
	if err != nil {
		return nil, fmt.Errorf("count: %w", err)
	}
	var es []graph.Edge
	for j := 0; j < m; j++ {
		u, err := d.uvarint(uint64(d.n - 1))
		var v int
		if err == nil {
			v, err = d.uvarint(uint64(d.n - 1))
		}
		if err != nil {
			return nil, fmt.Errorf("edge %d: %w", j, err)
		}
		e := graph.Edge{U: u, V: v}
		switch {
		case e.U >= e.V:
			return nil, fmt.Errorf("edge %d {%d,%d} is not canonical (u < v)", j, e.U, e.V)
		case j > 0 && !edgeLess(es[j-1], e):
			return nil, fmt.Errorf("edge %d {%d,%d} is unsorted or duplicated", j, e.U, e.V)
		case g != nil && g.HasEdge(e.U, e.V) != want:
			if want {
				return nil, fmt.Errorf("edge %d {%d,%d} is not present", j, e.U, e.V)
			}
			return nil, fmt.Errorf("edge %d {%d,%d} is already present", j, e.U, e.V)
		}
		es = append(es, e)
	}
	return es, nil
}

// role reads one role byte and rejects values above Unaffiliated.
func (d *decoder) role() (ctvg.Role, error) {
	b, err := d.br.ReadByte()
	if err != nil {
		return 0, noEOF(err)
	}
	if b > byte(ctvg.Unaffiliated) {
		return 0, fmt.Errorf("invalid role %d", b)
	}
	return ctvg.Role(b), nil
}

// cluster reads one cluster varint (stored as ID+1) and rejects IDs that
// name no node.
func (d *decoder) cluster() (int, error) {
	c, err := d.uvarint(uint64(d.n))
	return c - 1, err
}

func edgeLess(a, b graph.Edge) bool {
	return a.U < b.U || (a.U == b.U && a.V < b.V)
}

// noEOF turns a clean EOF inside the body into io.ErrUnexpectedEOF: the
// body never ends where a value is still expected.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Read deserialises a trace written by Write. Malformed input of any kind
// is reported as an error; Read never panics.
func Read(r io.Reader) (*ctvg.DeltaTrace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head[:len(magic)])
	}
	switch v := head[len(magic)]; v {
	case version:
	case 1, 2:
		return nil, fmt.Errorf("trace: unsupported version %d (the per-round formats are no longer read; re-record the trace)", v)
	default:
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	d := &decoder{br: br}
	n, err := d.uvarint(limit)
	if err != nil {
		return nil, fmt.Errorf("trace: n: %w", err)
	}
	rounds, err := d.uvarint(limit)
	if err != nil {
		return nil, fmt.Errorf("trace: rounds: %w", err)
	}
	if rounds == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	d.n = n

	baseEdges, err := d.edges(nil, false)
	if err != nil {
		return nil, fmt.Errorf("trace: base edges: %w", err)
	}
	// Grow the base roles as they are read rather than allocating n entries
	// up front, so a short file cannot claim a huge n cheaply.
	var roles []ctvg.Role
	for v := 0; v < n; v++ {
		role, err := d.role()
		if err != nil {
			return nil, fmt.Errorf("trace: base role of node %d: %w", v, err)
		}
		roles = append(roles, role)
	}
	baseH := &ctvg.Hierarchy{Role: roles, Cluster: make([]int, n)}
	for v := 0; v < n; v++ {
		if baseH.Cluster[v], err = d.cluster(); err != nil {
			return nil, fmt.Errorf("trace: base cluster of node %d: %w", v, err)
		}
	}
	baseG := graph.FromEdgeList(n, baseEdges)

	windows, err := d.uvarint(uint64(rounds - 1))
	if err != nil {
		return nil, fmt.Errorf("trace: window count: %w", err)
	}
	// g and h track the state entering each window, so every delta can be
	// checked against it and every role change given its old state.
	g, h := baseG.Clone(), baseH.Clone()
	var starts []int
	var gdeltas []*graph.Delta
	var hdeltas []ctvg.HierarchyDelta
	prev := 0
	for i := 1; i <= windows; i++ {
		start, err := d.uvarint(uint64(rounds - 1))
		if err == nil && start <= prev {
			err = fmt.Errorf("round %d is not after round %d", start, prev)
		}
		if err != nil {
			return nil, fmt.Errorf("trace: window %d start: %w", i, err)
		}
		prev = start
		removed, err := d.edges(g, true)
		if err != nil {
			return nil, fmt.Errorf("trace: window %d removed edges: %w", i, err)
		}
		added, err := d.edges(g, false)
		if err != nil {
			return nil, fmt.Errorf("trace: window %d added edges: %w", i, err)
		}
		hd, err := d.roleChanges(h)
		if err != nil {
			return nil, fmt.Errorf("trace: window %d role changes: %w", i, err)
		}
		if len(removed) == 0 && len(added) == 0 && len(hd) == 0 {
			return nil, fmt.Errorf("trace: window %d changes neither layer", i)
		}
		for _, e := range removed {
			g.RemoveEdge(e.U, e.V)
		}
		for _, e := range added {
			g.AddEdge(e.U, e.V)
		}
		for _, c := range hd {
			h.Role[c.V], h.Cluster[c.V] = c.NewRole, c.NewCluster
		}
		starts = append(starts, start)
		gdeltas = append(gdeltas, &graph.Delta{Add: added, Remove: removed})
		hdeltas = append(hdeltas, hd)
	}
	switch _, err := br.ReadByte(); {
	case err == nil:
		return nil, fmt.Errorf("trace: trailing data after window %d", windows)
	case err != io.EOF:
		return nil, fmt.Errorf("trace: reading past window %d: %w", windows, err)
	}
	return ctvg.NewDeltaTrace(baseG, baseH, starts, gdeltas, hdeltas, rounds), nil
}

// roleChanges reads one window's role changes against h, the hierarchy
// entering the window, which supplies each change's old state. Nodes must
// be strictly increasing and every change must change something.
func (d *decoder) roleChanges(h *ctvg.Hierarchy) (ctvg.HierarchyDelta, error) {
	count, err := d.uvarint(uint64(d.n))
	if err != nil {
		return nil, fmt.Errorf("count: %w", err)
	}
	var hd ctvg.HierarchyDelta
	for j := 0; j < count; j++ {
		v, err := d.uvarint(uint64(d.n - 1))
		if err == nil && j > 0 && v <= hd[j-1].V {
			err = fmt.Errorf("node %d is unsorted or duplicated", v)
		}
		var role ctvg.Role
		if err == nil {
			role, err = d.role()
		}
		var c int
		if err == nil {
			c, err = d.cluster()
		}
		if err == nil && role == h.Role[v] && c == h.Cluster[v] {
			err = fmt.Errorf("node %d keeps its state", v)
		}
		if err != nil {
			return nil, fmt.Errorf("change %d: %w", j, err)
		}
		hd = append(hd, ctvg.RoleChange{V: v, OldRole: h.Role[v], NewRole: role, OldCluster: h.Cluster[v], NewCluster: c})
	}
	return hd, nil
}
