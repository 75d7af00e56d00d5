package obs

import (
	"context"
	"log/slog"
)

// discard is the logger of every tier configured without one.
var discard = slog.New(discardHandler{})

// DiscardLogger returns the shared logger that drops every record. Its
// handler is enabled at no level, so a dropped record is never
// formatted; a text handler writing to io.Discard is enabled at Info and
// formats each record first. (slog.DiscardHandler needs Go 1.24.)
func DiscardLogger() *slog.Logger { return discard }

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }
