module scaldift/bench

go 1.24

require scaldift v0.0.0

replace scaldift => ../
