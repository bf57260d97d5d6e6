"""Reference implementations that tests compare production code against.

Each oracle rebuilds a result the slow, obvious way, with no memo or
shared state, so a faster production path can be checked against it
byte for byte.
"""
