package comp

import "unsafe"

// TableBytes is the memory e's by-address table retains: its page
// directory and every allocated page.
func (e *Engine) TableBytes() int { return e.c.byAddr.bytes() }

func (t *blockTable) bytes() int {
	n := cap(t.pages) * int(unsafe.Sizeof((*page)(nil)))
	for _, p := range t.pages {
		if p != nil {
			n += int(unsafe.Sizeof(*p))
		}
	}
	return n
}

// pageCount is the number of allocated pages.
func (t *blockTable) pageCount() int {
	n := 0
	for _, p := range t.pages {
		if p != nil {
			n++
		}
	}
	return n
}
