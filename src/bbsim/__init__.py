"""bbsim: discrete-event simulator of job scheduling with shared burst buffers."""

__version__ = "0.1.0"
