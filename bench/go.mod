module scubabench

go 1.22

require scuba v0.0.0

replace scuba => ../
