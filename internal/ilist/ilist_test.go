package ilist

import (
	"container/list"
	"math/rand"
	"testing"
)

type item struct {
	id   int
	link Elem[item]
}

// same fails unless l and ref hold the same items in the same order, as
// seen walking both ways.
func same(t *testing.T, step int, l *List[item], ref *list.List) {
	t.Helper()
	if l.Len() != ref.Len() {
		t.Fatalf("step %d: Len %d, reference %d", step, l.Len(), ref.Len())
	}
	it, e := l.Front(), ref.Front()
	for ; e != nil; it, e = it.link.Next(), e.Next() {
		if it == nil || it != e.Value.(*item) {
			t.Fatalf("step %d: forward walk diverges from the reference at item %d", step, e.Value.(*item).id)
		}
	}
	if it != nil {
		t.Fatalf("step %d: forward walk runs past the reference", step)
	}
	it, e = l.Back(), ref.Back()
	for ; e != nil; it, e = it.link.Prev(), e.Prev() {
		if it == nil || it != e.Value.(*item) {
			t.Fatalf("step %d: backward walk diverges from the reference at item %d", step, e.Value.(*item).id)
		}
	}
	if it != nil {
		t.Fatalf("step %d: backward walk runs past the reference", step)
	}
}

func TestAgainstContainerList(t *testing.T) {
	var l List[item] // the zero value is an empty list
	if l.Front() != nil || l.Back() != nil || l.Len() != 0 {
		t.Fatal("zero List is not empty")
	}
	ref := list.New()
	items := make([]*item, 32)
	where := make(map[*item]*list.Element)
	for i := range items {
		items[i] = &item{id: i}
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 5000; step++ {
		it := items[rng.Intn(len(items))]
		e, linked := where[it]
		if it.link.Linked() != linked {
			t.Fatalf("step %d: item %d Linked()=%v, reference %v", step, it.id, it.link.Linked(), linked)
		}
		switch op := rng.Intn(4); {
		case !linked && op < 2:
			l.PushFront(&it.link, it)
			where[it] = ref.PushFront(it)
		case !linked:
			l.PushBack(&it.link, it)
			where[it] = ref.PushBack(it)
		case op < 2:
			l.MoveToFront(&it.link)
			ref.MoveToFront(e)
		default:
			l.Remove(&it.link)
			ref.Remove(e)
			delete(where, it)
			l.Remove(&it.link) // removing an unlinked element is a no-op
		}
		if step%97 == 0 && ref.Len() > 0 {
			first := ref.Remove(ref.Front()).(*item)
			delete(where, first)
			if got := l.PopFront(); got != first || first.link.Linked() {
				t.Fatalf("step %d: PopFront returned item %v, reference front is %d", step, got, first.id)
			}
		}
		same(t, step, &l, ref)
	}
}

func TestOneStructOnTwoLists(t *testing.T) {
	type page struct{ lru, dirty Elem[page] }
	var lru, dirty List[page]
	a, b := new(page), new(page)
	lru.PushBack(&a.lru, a)
	lru.PushBack(&b.lru, b)
	dirty.PushBack(&b.dirty, b)
	lru.Remove(&b.lru)
	if lru.Front() != a || lru.Len() != 1 || dirty.Front() != b || !b.dirty.Linked() || b.lru.Linked() {
		t.Fatal("removing a struct from one list disturbed its place on the other")
	}
}
