// Package ilist is container/list with the element embedded in the
// struct it links — the kernel's list_head — so putting a struct on a
// list, moving it and taking it off allocate nothing. A struct that sits
// on several lists at once embeds one Elem per list.
//
// Like container/list, a List is not safe for concurrent use and must
// not be copied once an element is linked (linked elements point at it).
package ilist

// Elem is one struct's position on one list. The zero value is unlinked.
type Elem[T any] struct {
	next, prev *Elem[T]
	owner      *T
}

// Linked reports whether e is currently on a list.
func (e *Elem[T]) Linked() bool { return e.next != nil }

// List is a doubly linked list of *T threaded through an Elem[T] field
// of each. The zero value is an empty list.
type List[T any] struct {
	root Elem[T] // sentinel: root.next is the front, root.prev the back
	len  int
}

// Len reports the number of linked elements.
func (l *List[T]) Len() int { return l.len }

// Front returns the first struct on the list, or nil.
func (l *List[T]) Front() *T { return l.root.next.ownerOrNil() }

// Back returns the last struct on the list, or nil.
func (l *List[T]) Back() *T { return l.root.prev.ownerOrNil() }

// Next returns the struct linked after e, or nil at the back.
func (e *Elem[T]) Next() *T { return e.next.ownerOrNil() }

// Prev returns the struct linked before e, or nil at the front.
func (e *Elem[T]) Prev() *T { return e.prev.ownerOrNil() }

// ownerOrNil is nil for the sentinel (which has no owner) and for the nil
// links of an empty zero-value list.
func (e *Elem[T]) ownerOrNil() *T {
	if e == nil {
		return nil
	}
	return e.owner
}

// PopFront unlinks and returns the first struct on the list, or nil —
// the free-list idiom: take a recycled struct if there is one.
func (l *List[T]) PopFront() *T {
	e := l.root.next
	if e == nil || e == &l.root {
		return nil
	}
	l.Remove(e)
	return e.owner
}

// PushFront links owner, through its unlinked field e, at the front.
func (l *List[T]) PushFront(e *Elem[T], owner *T) {
	e.owner = owner
	l.insert(e, l.sentinel())
}

// PushBack links owner, through its unlinked field e, at the back.
func (l *List[T]) PushBack(e *Elem[T], owner *T) {
	e.owner = owner
	l.insert(e, l.sentinel().prev)
}

// MoveToFront moves the linked element e to the front.
func (l *List[T]) MoveToFront(e *Elem[T]) {
	if l.root.next == e {
		return
	}
	e.prev.next, e.next.prev = e.next, e.prev
	l.len--
	l.insert(e, &l.root)
}

// Remove unlinks e; a no-op when e is not linked.
func (l *List[T]) Remove(e *Elem[T]) {
	if e.next == nil {
		return
	}
	e.prev.next, e.next.prev = e.next, e.prev
	e.next, e.prev = nil, nil
	l.len--
}

// sentinel returns the root, closing the ring on first use.
func (l *List[T]) sentinel() *Elem[T] {
	if l.root.next == nil {
		l.root.next, l.root.prev = &l.root, &l.root
	}
	return &l.root
}

// insert links e after at.
func (l *List[T]) insert(e, at *Elem[T]) {
	e.prev, e.next = at, at.next
	at.next.prev, at.next = e, e
	l.len++
}
