package experiments

// lruLinks is the recency-list membership of one cache entry. Entry types
// embed it by value, which makes the list intrusive: linking an entry costs
// no allocation beyond the entry itself (container/list would add one
// Element per entry).
type lruLinks[E any] struct {
	prev, next *E
}

func (l *lruLinks[E]) links() *lruLinks[E] { return l }

// lruNode is satisfied by *E for every entry type E that embeds
// lruLinks[E].
type lruNode[E any] interface {
	*E
	links() *lruLinks[E]
}

// lruList is a doubly-linked recency list over entries that embed
// lruLinks, most recently used first. The zero value is an empty list. It
// does no locking; the owning cache guards it with its own mutex.
type lruList[E any, P lruNode[E]] struct {
	head, tail *E
}

// pushFront links e, which must not be on the list, as the most recent
// entry.
func (l *lruList[E, P]) pushFront(e *E) {
	el := P(e).links()
	el.prev, el.next = nil, l.head
	if l.head != nil {
		P(l.head).links().prev = e
	} else {
		l.tail = e
	}
	l.head = e
}

// remove unlinks e, which must be on the list.
func (l *lruList[E, P]) remove(e *E) {
	el := P(e).links()
	if el.prev != nil {
		P(el.prev).links().next = el.next
	} else {
		l.head = el.next
	}
	if el.next != nil {
		P(el.next).links().prev = el.prev
	} else {
		l.tail = el.prev
	}
	el.prev, el.next = nil, nil
}

// moveToFront marks e, which must be on the list, as the most recent entry.
func (l *lruList[E, P]) moveToFront(e *E) {
	if l.head == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// back returns the least recently used entry, or nil when the list is
// empty.
func (l *lruList[E, P]) back() *E { return l.tail }
