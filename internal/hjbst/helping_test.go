package hjbst

import (
	"testing"

	"repro/internal/keys"
)

// TestHelpingCompletesStalledChildCAS simulates a process that wins the
// CHILDCAS flag for an insert and stalls before swinging the child pointer
// or releasing the node. The next traversal through the flagged node must
// complete both steps on its behalf.
func TestHelpingCompletesStalledChildCAS(t *testing.T) {
	tr := New()
	h := tr.NewHandle()
	for _, k := range []int64{50, 25, 75} {
		h.Insert(keys.Map(k))
	}

	// Manually install (but do not execute) an insert's ChildCASOp.
	newKey := keys.Map(60)
	res, _, _, curr, currOp := h.find(newKey, tr.root, true)
	if res == found {
		t.Fatal("setup: key already present")
	}
	nn := newNode(newKey)
	isLeft := res == notFoundL
	var old *node
	if isLeft {
		old = curr.left.Load()
	} else {
		old = curr.right.Load()
	}
	op := &childCASOp{isLeft: isLeft, expected: old, update: nn}
	op.flagged = &opRef{kind: kindChildCAS, cc: op}
	op.done = &opRef{kind: kindNone, cc: op}
	if !curr.op.CompareAndSwap(currOp, op.flagged) {
		t.Fatal("setup: flag CAS failed")
	}
	// ... and stall.

	// Any find that traverses the flagged node helps: a search for the new
	// key must observe the completed insert.
	h2 := tr.NewHandle()
	if !h2.Search(newKey) {
		t.Fatal("stalled insert not completed by a helping search")
	}
	if h2.Stats.Helps == 0 {
		t.Fatal("search did not help the stalled child CAS")
	}
	if curr.op.Load() != op.done {
		t.Fatal("flagged node not released after helping")
	}
	if err := tr.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestHelpingCompletesStalledRelocation installs a RelocateOp on a
// successor node (the first step of a two-child delete) and stalls. A
// traversal bumping into the successor must drive the relocation to its
// decision and apply the key replacement.
func TestHelpingCompletesStalledRelocation(t *testing.T) {
	tr := New()
	h := tr.NewHandle()
	for _, k := range []int64{50, 25, 75, 60, 90} {
		h.Insert(keys.Map(k))
	}

	// Target 50: two children. Successor in its right subtree is 60.
	target := keys.Map(50)
	res, _, _, curr, currOp := h.find(target, tr.root, true)
	if res != found {
		t.Fatal("setup: target not found")
	}
	if curr.left.Load() == nil || curr.right.Load() == nil {
		t.Fatal("setup: target does not have two children")
	}
	res2, _, _, replace, replaceOp := h.find(target, curr, false)
	if res2 == abort {
		t.Fatal("setup: successor find aborted")
	}
	ro := &relocateOp{dest: curr, destOp: currOp, removeKey: target, replaceKey: replace.key.Load()}
	ro.relocRef = &opRef{kind: kindRelocate, ro: ro}
	ro.doneRef = &opRef{kind: kindNone, ro: ro}
	ro.markRef = &opRef{kind: kindMark, ro: ro}
	if !replace.op.CompareAndSwap(replaceOp, ro.relocRef) {
		t.Fatal("setup: relocation install failed")
	}
	// ... and stall: the destination still holds the old key. The delete
	// has not linearized yet (that happens when the relocation is installed
	// on the destination), so the target is still — correctly — visible.
	if !tr.Search(target) {
		t.Fatal("target invisible before the relocation decided")
	}

	// A traversal through the successor node must help: it drives the
	// relocation to SUCCESSFUL, swaps the destination's key, marks the
	// successor and splices it out.
	h2 := tr.NewHandle()
	if !h2.Search(keys.Map(60)) {
		t.Fatal("successor key lost during helped relocation")
	}
	if h2.Stats.Helps == 0 {
		t.Fatal("search through the successor did not help the relocation")
	}
	if tr.Search(target) {
		t.Fatal("deleted key still visible after helped relocation")
	}
	// The successor key must have moved into the destination node.
	if curr.key.Load() != keys.Map(60) {
		t.Fatalf("destination key = %#x, want key 60", curr.key.Load())
	}
	for _, k := range []int64{25, 75, 60, 90} {
		if !tr.Search(keys.Map(k)) {
			t.Fatalf("key %d lost during helped relocation", k)
		}
	}
	if err := tr.Audit(); err != nil {
		t.Fatal(err)
	}
}

// flagInsert performs an insert's first step by hand — find the spot,
// flag the would-be parent with a ChildCASOp — and stops there, returning
// the op and the flagged node.
func flagInsert(t *testing.T, h *Handle, key uint64) (*childCASOp, *node) {
	t.Helper()
	res, _, _, curr, currOp := h.find(key, h.t.root, true)
	if res == found {
		t.Fatalf("setup: key %#x already present", key)
	}
	isLeft := res == notFoundL
	old := curr.right.Load()
	if isLeft {
		old = curr.left.Load()
	}
	op := newChildCAS(isLeft, old, newNode(key))
	if !curr.op.CompareAndSwap(currOp, op.flagged) {
		t.Fatal("setup: flag CAS failed")
	}
	return op, curr
}

// TestStaleChildCASHelperCannotResurrect replays the ABA on an emptied
// child field deterministically: a helper of a finished insert wakes up
// after the inserted node was deleted and a newer insert flagged the same
// parent, and re-applies its stale child CAS. The stale CAS must fail, so
// the newer insert lands and the deleted key stays deleted.
func TestStaleChildCASHelperCannotResurrect(t *testing.T) {
	tr := New()
	h := tr.NewHandle()
	h.Insert(keys.Map(50))

	stale, parent := flagInsert(t, h, keys.Map(60))
	h.helpChildCAS(stale, parent) // the owner completes the insert of 60...
	staleHelper := tr.NewHandle() // ...while a helper that read the op stalls
	if !h.Delete(keys.Map(60)) {  // 60 goes again: 50's right child is empty
		t.Fatal("delete of 60 failed")
	}
	fresh, parent2 := flagInsert(t, h, keys.Map(70)) // a newer insert flags 50
	if parent2 != parent || fresh.isLeft != stale.isLeft {
		t.Fatal("setup: the newer insert does not target the same child field")
	}
	staleHelper.helpChildCAS(stale, parent) // the stale helper wakes
	h.helpChildCAS(fresh, parent)           // the newer insert completes

	if !h.Search(keys.Map(70)) {
		t.Fatal("insert of 70 reported success but the key is missing")
	}
	if h.Search(keys.Map(60)) {
		t.Fatal("deleted key 60 resurrected by a stale helper")
	}
	if err := tr.Audit(); err != nil {
		t.Fatal(err)
	}
	var got []int64
	tr.Keys(func(u uint64) bool { got = append(got, keys.Unmap(u)); return true })
	if len(got) != 2 || got[0] != 50 || got[1] != 70 {
		t.Fatalf("keys = %v, want [50 70]", got)
	}
}
