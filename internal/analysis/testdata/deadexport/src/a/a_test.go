package a

import "testing"

func TestOnlyTested(t *testing.T) {
	OnlyTested()
	_ = Tool{Count: 1}
	_ = Bool{}.Meet(true, false)
}
