module gpml/bench

go 1.21

require gpml v0.0.0

replace gpml => ../
