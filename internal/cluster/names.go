package cluster

import (
	"strconv"
	"strings"
)

// nameArena spells the node, link and switch names of a structured
// topology. A 5 488-node fat tree has ~23 000 of them; through fmt.Sprintf
// that was ~23 000 allocations and 29 % of a build-and-run. Here every name
// is appended to one buffer and handed out as a substring of it:
//
//	Name: names.s("ft-ea-p").d(p).s("-e").d(e).s("-a").d(a).end()
//
// Should the buffer outgrow its reservation it moves; names already handed
// out keep the old storage, which is never written again.
type nameArena struct {
	buf   strings.Builder
	start int      // where the name being spelled begins
	num   [20]byte // scratch for one formatted integer
}

// newNameArena reserves room for count names.
func newNameArena(count int) *nameArena {
	a := &nameArena{}
	a.buf.Grow(16 * count)
	return a
}

// s appends a literal part.
func (a *nameArena) s(part string) *nameArena {
	a.buf.WriteString(part)
	return a
}

// d appends v as fmt's %d.
func (a *nameArena) d(v int) *nameArena {
	a.buf.Write(strconv.AppendInt(a.num[:0], int64(v), 10))
	return a
}

// d4 appends v as fmt's %04d; v must not be negative.
func (a *nameArena) d4(v int) *nameArena {
	digits := strconv.AppendInt(a.num[:0], int64(v), 10)
	for pad := 4 - len(digits); pad > 0; pad-- {
		a.buf.WriteByte('0')
	}
	a.buf.Write(digits)
	return a
}

// end returns the name spelled since the previous end.
func (a *nameArena) end() string {
	name := a.buf.String()[a.start:]
	a.start = a.buf.Len()
	return name
}
