// Package a declares the exported names deadexport judges. Package b
// (a command in the first root) and package bench/c (a command in the
// second root, as the nested bench/ module is) are its only callers.
package a

// Used is called from b.
func Used() {}

func OnlyTested() {} // want "a.OnlyTested has no non-test reference"

// Recursive calls only itself.
func Recursive(n int) int { // want "a.Recursive has no non-test reference"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// BenchOnly is called only from the second root.
func BenchOnly() {}

// Domain is generic; Bool.Join is reached only through Domain[bool].
type Domain[L any] interface {
	Join(x, y L) L
}

type Bool struct{}

func (Bool) Join(x, y bool) bool { return x || y }

func (Bool) Meet(x, y bool) bool { return x && y } // want "a.Bool.Meet has no non-test reference"

// Propagate calls Join through the interface.
func Propagate[L any](d Domain[L], x, y L) L { return d.Join(x, y) }

// Sink is what b passes a Tool as.
type Sink interface {
	OnEvent()
	OnFlush() // want "a.Sink.OnFlush has no non-test reference"
}

// NopSink is embedded for its methods.
type NopSink struct{}

func (NopSink) OnEvent() {}

func (NopSink) OnFlush() {}

// Tool promotes NopSink's methods to satisfy Sink. b writes Name and
// Level without reading them; Name carries a tag, so reflection may.
type Tool struct {
	NopSink
	Name  string `json:"name"`
	Count int    // want "a.Tool.Count has no non-test reference"
	Level int    // want "a.Tool.Level has no non-test reference"
	Width int    // written and read
	Hits  int    // changed only by ++
	Total int    // changed only by +=
}

// WasHeld is called from b, so its ignore suppresses nothing.
//
//scaldift:ignore deadexport b calls it now // want "stale //scaldift:ignore deadexport"
func WasHeld() {}

//scaldift:ignore deadexport test-support entry point
func Held() {}
