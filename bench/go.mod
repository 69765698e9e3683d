module p2pcollect/bench

go 1.22

require p2pcollect v0.0.0

replace p2pcollect => ../
