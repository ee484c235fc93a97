module doubledecker/bench

go 1.22

require doubledecker v0.0.0

replace doubledecker => ../
