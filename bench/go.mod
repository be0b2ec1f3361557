module cellqos/bench

go 1.22

require cellqos v0.0.0

replace cellqos => ../
