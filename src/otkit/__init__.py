"""otkit: ground-truth preparation, romanization, and evaluation for
Arabic-script Ottoman Turkish transcribed into Latin-script Modern Turkish."""

__version__ = "0.1.0"
