// Command b uses a from the first root.
package main

import "a"

func main() {
	a.Used()
	a.WasHeld()
	_ = a.Propagate[bool](a.Bool{}, true, false)
	var s a.Sink = a.Tool{Level: 1}
	s.OnEvent()
}
