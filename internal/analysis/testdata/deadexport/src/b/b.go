// Command b uses a from the first root.
package main

import "a"

func main() {
	a.Used()
	a.WasHeld()
	_ = a.Propagate[bool](a.Bool{}, true, false)
	t := a.Tool{Name: "b", Level: 1}
	t.Level = 2
	(t.Width) = 3
	_ = t.Width
	t.Hits++
	t.Total += 1
	var s a.Sink = t
	s.OnEvent()
}
