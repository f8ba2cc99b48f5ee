// Command c stands for the nested bench/ module: a second root, so it
// sees a through its own load of it.
package main

import "a"

func main() {
	a.BenchOnly()
}
