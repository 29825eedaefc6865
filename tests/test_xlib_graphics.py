"""Tests for colors, fonts, drawing, and image formats."""

import tracemalloc

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro.xlib import close_all_displays, open_display
from repro.xlib.display import Display
from repro.xlib.colors import alloc_color, ColorError, parse_color, pixel_to_rgb
from repro.xlib.fonts import default_font, FontError, list_fonts, load_font
from repro.xlib.graphics import (
    GC,
    Pixmap,
    clear_area,
    copy_area,
    draw_line,
    draw_rectangle,
    draw_string,
    fill_rectangle,
    put_image,
    window_pixels,
)
from repro.xlib.xpm import (
    ImageFormatError,
    parse_xbm,
    parse_xpm,
    read_image_file,
    TRANSPARENT,
    write_xpm,
)


class TestColors:
    def test_named_colors(self):
        assert parse_color("red") == (255, 0, 0)
        assert parse_color("tomato") == (255, 99, 71)
        assert parse_color("LightSteelBlue") == (176, 196, 222)
        assert parse_color("navy blue") == (0, 0, 128)

    def test_hex_forms(self):
        assert parse_color("#ff0000") == (255, 0, 0)
        assert parse_color("#f00") == (255, 0, 0)
        assert parse_color("#ffff00000000") == (255, 0, 0)

    def test_bad_color_raises(self):
        with pytest.raises(ColorError):
            parse_color("notacolor")
        with pytest.raises(ColorError):
            parse_color("#12345")

    def test_pixel_roundtrip(self):
        pixel = alloc_color("tomato")
        assert pixel_to_rgb(pixel) == (255, 99, 71)


class TestFonts:
    def test_fixed_alias(self):
        font = load_font("fixed")
        assert font.family == "fixed"
        assert font.monospace

    def test_paper_lucida_patterns(self):
        medium = load_font("*b&h-lucida-medium-r*14*")
        bold = load_font("*b&h-lucida-bold-r*14*")
        assert medium.family == "lucida" and medium.size == 14
        assert bold.weight == "bold"

    def test_list_fonts(self):
        names = list_fonts("*lucida*")
        assert names and all("lucida" in n for n in names)

    def test_no_match_raises(self):
        with pytest.raises(FontError):
            load_font("*nonexistentfamily*")

    def test_metrics_sane(self):
        font = load_font("fixed")
        assert font.ascent > 0 and font.descent >= 0
        assert font.text_width("hello") > font.text_width("hi")
        assert font.char_width("w") > 0

    def test_bold_wider(self):
        medium = load_font("*lucida-medium-r*14*")
        bold = load_font("*lucida-bold-r*14*")
        assert bold.text_width("wafe") > medium.text_width("wafe")

    def test_glyphs_deterministic_and_distinct(self):
        font = default_font()
        assert font.glyph_bits("a") == font.glyph_bits("a")
        assert font.glyph_bits("a") != font.glyph_bits("b")
        assert font.glyph_bits(" ") == [0] * 7


@pytest.fixture
def window():
    close_all_displays()
    display = open_display(":0")
    win = display.create_window(None, 10, 10, 100, 80)
    win.map()
    return win


class TestDrawing:
    def test_fill_rectangle_paints(self, window):
        gc = GC(foreground=alloc_color("red"))
        fill_rectangle(window, gc, 0, 0, 10, 10)
        pixels = window_pixels(window)
        assert pixels[5, 5] == alloc_color("red")
        assert pixels[20, 20] != alloc_color("red")

    def test_fill_clips_to_window(self, window):
        gc = GC(foreground=alloc_color("blue"))
        fill_rectangle(window, gc, 90, 70, 50, 50)  # spills past the edge
        fb = window.display.screen.framebuffer
        # Inside (abs 10+95, 10+75) painted, outside the window not.
        assert fb[80, 102] == alloc_color("blue")
        assert fb[95, 115] != alloc_color("blue")

    def test_draw_rectangle_outline_only(self, window):
        gc = GC(foreground=alloc_color("black"))
        draw_rectangle(window, gc, 0, 0, 20, 20)
        pixels = window_pixels(window)
        assert pixels[0, 5] == alloc_color("black")
        assert pixels[10, 10] != alloc_color("black")

    def test_draw_line_endpoints(self, window):
        gc = GC(foreground=alloc_color("green"))
        draw_line(window, gc, 0, 0, 30, 30)
        pixels = window_pixels(window)
        assert pixels[0, 0] == alloc_color("green")
        assert pixels[30, 30] == alloc_color("green")
        assert pixels[15, 15] == alloc_color("green")

    def test_draw_string_changes_pixels(self, window):
        gc = GC(foreground=alloc_color("black"))
        before = window_pixels(window).copy()
        width = draw_string(window, gc, 5, 20, "wafe")
        after = window_pixels(window)
        assert width == gc.font.text_width("wafe")
        assert (before != after).any()

    def test_different_strings_paint_differently(self, window):
        gc = GC(foreground=alloc_color("black"))
        draw_string(window, gc, 5, 20, "aaaa")
        first = window_pixels(window).copy()
        clear_area(window)
        draw_string(window, gc, 5, 20, "bbbb")
        second = window_pixels(window)
        assert (first != second).any()

    def test_clear_area_resets_background(self, window):
        gc = GC(foreground=alloc_color("red"))
        fill_rectangle(window, gc, 0, 0, 100, 80)
        clear_area(window)
        assert (window_pixels(window) == window.background_pixel).all()

    def test_copy_area_between_drawables(self, window):
        pixmap = Pixmap(20, 20)
        gc = GC(foreground=alloc_color("purple"))
        fill_rectangle(pixmap, gc, 0, 0, 20, 20)
        copy_area(pixmap, window, gc, 0, 0, 20, 20, 30, 30)
        pixels = window_pixels(window)
        assert pixels[35, 35] == alloc_color("purple")

    def test_pixmap_is_standalone(self):
        pixmap = Pixmap(10, 10, depth=1)
        gc = GC(foreground=1)
        fill_rectangle(pixmap, gc, 2, 2, 3, 3)
        assert pixmap.framebuffer[3, 3] == 1
        assert pixmap.framebuffer[0, 0] == 0


def reference_draw_string(drawable, gc, x, y, text):
    """The executable spec of ``draw_string``: one ``fill_rectangle``
    per lit cell of each glyph's 5x7 grid."""
    font = gc.font
    cursor = x
    top = y - font.ascent
    scale_x = max(1, font.size // 10)
    scale_y = max(1, font.height // 8)
    for ch in text:
        for row, bits in enumerate(font.glyph_bits(ch)):
            for col in range(5):
                if bits & (1 << col):
                    fill_rectangle(drawable, gc,
                                   cursor + col * scale_x,
                                   top + row * scale_y,
                                   scale_x, scale_y)
        cursor += font.char_width(ch)
    return cursor - x


#: Every size (8-24 px: glyph scale 1-3), monospace and proportional,
#: medium and bold.
_FONT_NAMES = [name for name in list_fonts("*", max_names=1000)
               if "-fixed-" in name or "-lucida-" in name
               or "-helvetica-" in name]

# Spaces and control characters (blank glyphs), the narrow and wide
# proportional classes, and code points far outside Latin-1.
_text = st.text(
    st.one_of(
        st.sampled_from(" \t\x00iljI.,:;'|!mwMW@"),
        st.characters(min_codepoint=0, max_codepoint=0x7F),
        st.characters(min_codepoint=0x100, max_codepoint=0x10FFFF),
    ),
    max_size=12,
)


def _drawable_pair(kind, wx, wy, width, height, paint_clip):
    """Two identical drawables on separate framebuffers."""
    if kind == "pixmap":
        return Pixmap(width, height), Pixmap(width, height)
    pair = []
    for __ in range(2):
        win = Display().create_window(None, wx, wy, width, height)
        win.paint_clip = paint_clip
        pair.append(win)
    return pair


class TestDrawStringDifferential:
    """``draw_string`` paints a whole string with one masked store; it
    must write the same framebuffer bytes and count the same pixels as
    the per-cell spec above."""

    @settings(max_examples=300, deadline=None)
    @given(
        font_name=st.sampled_from(_FONT_NAMES),
        text=_text,
        kind=st.sampled_from(["window", "window", "pixmap"]),
        wx=st.integers(-80, 1040),
        wy=st.integers(-40, 780),
        width=st.integers(1, 160),
        height=st.integers(1, 60),
        x=st.integers(-40, 150),
        y=st.integers(-20, 80),
        paint_clip=st.one_of(
            st.none(),
            st.tuples(st.integers(-10, 100), st.integers(-10, 40),
                      st.integers(0, 170), st.integers(0, 70))),
    )
    def test_matches_per_cell_spec(self, font_name, text, kind, wx, wy,
                                   width, height, x, y, paint_clip):
        gc = GC(foreground=0x123456, font=load_font(font_name))
        fast, spec = _drawable_pair(kind, wx, wy, width, height,
                                    paint_clip)
        advance = draw_string(fast, gc, x, y, text)
        assert advance == reference_draw_string(spec, gc, x, y, text)
        assert advance == gc.font.text_width(text)
        if kind == "pixmap":
            fast_fb, spec_fb = fast.framebuffer, spec.framebuffer
        else:
            fast_fb = fast.display.screen.framebuffer
            spec_fb = spec.display.screen.framebuffer
            fast_stats = fast.display.render_stats
            spec_stats = spec.display.render_stats
            assert fast_stats["drawn_pixels"] == spec_stats["drawn_pixels"]
            # One draw call per string that wrote anything.
            assert fast_stats["draw_calls"] == \
                (1 if spec_stats["drawn_pixels"] else 0)
        assert fast_fb.tobytes() == spec_fb.tobytes()

    @pytest.mark.parametrize("font_name", [
        "*helvetica-medium-r*8*", "*lucida-bold-r*14*",
        "*lucida-bold-r*24*", "*courier-medium-r*18*"])
    def test_every_clip_edge(self, font_name):
        # A clip box edge at each column of the string: glyphs reaching
        # into the box by one column still paint it, and glyphs next
        # to it paint nothing.
        gc = GC(font=load_font(font_name))
        text = "MWi@l W!j"
        fast, spec = _drawable_pair("window", 3, 2, 300, 40, None)
        for x0 in range(-2, gc.font.text_width(text) + 12):
            for width in (1, 4):
                for win in (fast, spec):
                    win.display.screen.framebuffer[:] = 0xFFFFFF
                    win.display.reset_render_stats()
                    win.paint_clip = (x0, 0, x0 + width, 40)
                draw_string(fast, gc, 1, 30, text)
                reference_draw_string(spec, gc, 1, 30, text)
                assert fast.display.render_stats["drawn_pixels"] == \
                    spec.display.render_stats["drawn_pixels"]
                assert fast.display.screen.framebuffer.tobytes() == \
                    spec.display.screen.framebuffer.tobytes()

    def test_overlapping_bold_glyphs_count_every_cell(self):
        # Narrow bold lucida at 24 px: each 10 px wide glyph grid
        # advances 8 px, so neighbouring glyphs share pixels.
        gc = GC(font=load_font("*lucida-bold-r*24*"))
        fast, spec = _drawable_pair("window", 0, 0, 200, 40, None)
        draw_string(fast, gc, 0, 30, "iiiiii")
        reference_draw_string(spec, gc, 0, 30, "iiiiii")
        fast_fb = fast.display.screen.framebuffer
        painted = int((fast_fb == gc.foreground).sum())
        drawn = fast.display.render_stats["drawn_pixels"]
        assert drawn > painted  # overlaps counted again, as in the spec
        assert drawn == spec.display.render_stats["drawn_pixels"]
        assert fast_fb.tobytes() == spec.display.screen.framebuffer.tobytes()

    def test_offscreen_glyphs_are_not_rasterised(self):
        # Client text is unbounded: 60000 glyphs at 24 px span 900000
        # pixels, yet only the ones inside the 1024 px framebuffer are
        # rasterised (a whole-string mask would peak near 350 MB).
        gc = GC(font=load_font("*lucida-bold-r*24*"))
        win = Display().create_window(None, 0, 0, 2000, 40)
        text = "".join(chr(0x4E00 + i) for i in range(60000))
        tracemalloc.start()
        try:
            draw_string(win, gc, 0, 30, text)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert win.display.render_stats["drawn_pixels"] > 0
        assert peak < 8 * 2**20

    def test_clipped_away_string_records_nothing(self):
        gc = GC()
        win = Display().create_window(None, 0, 0, 50, 20)
        win.paint_clip = (0, 0, 10, 10)
        assert draw_string(win, gc, 20, 15, "wafe") == \
            gc.font.text_width("wafe")
        assert win.display.render_stats["draw_calls"] == 0
        assert draw_string(win, gc, 0, 15, "") == 0


class TestClipRect:
    """Edge cases of the low-level clip helper.  The framebuffer is
    200x150 (fw=200, fh=150); the drawable sits at origin (10, 10) with
    a 100x80 clip, mirroring the ``window`` fixture."""

    def _clip(self, x, y, w, h, ox=10, oy=10, cw=100, ch=80, clip=None,
              fb_shape=(150, 200)):
        from repro.xlib.graphics import _clip_rect

        fb = numpy.zeros(fb_shape, dtype=numpy.uint32)
        return _clip_rect(fb, ox, oy, cw, ch, x, y, w, h, clip=clip)

    def test_interior_rect_untouched(self):
        assert self._clip(5, 6, 20, 10) == (15, 16, 35, 26)

    def test_negative_origin_clipped_to_drawable(self):
        assert self._clip(-7, -3, 20, 10) == (10, 10, 23, 17)

    def test_zero_width_rejected(self):
        assert self._clip(5, 5, 0, 10) is None

    def test_negative_extent_rejected(self):
        assert self._clip(5, 5, -4, 10) is None
        assert self._clip(5, 5, 10, -1) is None

    def test_rect_fully_outside_clip_rejected(self):
        assert self._clip(100, 0, 10, 10) is None   # past the right edge
        assert self._clip(0, 80, 10, 10) is None    # past the bottom
        assert self._clip(-30, 0, 20, 10) is None   # entirely left of it

    def test_rect_spilling_past_clip_truncated(self):
        assert self._clip(90, 70, 50, 50) == (100, 80, 110, 90)

    def test_window_larger_than_framebuffer(self):
        # A 500x400 "window" on the 200x150 framebuffer: painting its
        # full extent must stop at the framebuffer edges.
        assert self._clip(0, 0, 500, 400, ox=0, oy=0, cw=500, ch=400) == \
            (0, 0, 200, 150)

    def test_window_hanging_off_framebuffer_origin(self):
        # Drawable origin above/left of the framebuffer (negative
        # absolute coordinates).
        assert self._clip(0, 0, 30, 30, ox=-20, oy=-25) == (0, 0, 10, 5)

    def test_damage_clip_intersects(self):
        assert self._clip(0, 0, 50, 50, clip=(10, 20, 30, 40)) == \
            (20, 30, 40, 50)

    def test_damage_clip_disjoint_rejects(self):
        assert self._clip(0, 0, 10, 10, clip=(50, 50, 60, 60)) is None

    def test_empty_damage_clip_rejects(self):
        assert self._clip(0, 0, 50, 50, clip=(5, 5, 5, 40)) is None


_XPM = """/* XPM */
static char * test[] = {
"4 3 3 1",
"  c None",
". c #FF0000",
"X c blue",
" .X ",
"....",
"X  X"};
"""

_XBM = """#define test_width 8
#define test_height 2
static char test_bits[] = { 0x01, 0x80 };
"""


class TestImageFormats:
    def test_parse_xpm(self):
        image = parse_xpm(_XPM)
        assert image.shape == (3, 4)
        assert image[0, 0] == TRANSPARENT
        assert image[0, 1] == alloc_color("red")
        assert image[0, 2] == alloc_color("blue")
        assert (image[1] == alloc_color("red")).all()

    def test_parse_xbm_lsb_first(self):
        image = parse_xbm(_XBM)
        assert image.shape == (2, 8)
        assert image[0, 0] == 1 and image[0, 1] == 0
        assert image[1, 7] == 1 and image[1, 0] == 0

    def test_xpm_roundtrip(self):
        image = parse_xpm(_XPM)
        again = parse_xpm(write_xpm(image))
        assert (again == image).all()

    def test_bad_xpm_raises(self):
        with pytest.raises(ImageFormatError):
            parse_xpm("not an xpm at all")

    def test_read_image_file_fallback(self, tmp_path):
        xbm_file = tmp_path / "icon.xbm"
        xbm_file.write_text(_XBM)
        xpm_file = tmp_path / "icon.xpm"
        xpm_file.write_text(_XPM)
        __, kind = read_image_file(str(xbm_file))
        assert kind == "xbm"
        __, kind = read_image_file(str(xpm_file))
        assert kind == "xpm"

    def test_put_image(self, window):
        image = parse_xpm(_XPM)
        put_image(window, GC(), image, 0, 0)
        pixels = window_pixels(window)
        assert pixels[1, 0] == alloc_color("red")

    def test_put_image_transparency_mask(self, window):
        # 'None' XPM cells leave the destination untouched.
        gc = GC(foreground=alloc_color("yellow"))
        fill_rectangle(window, gc, 0, 0, 10, 10)
        image = parse_xpm(_XPM)
        put_image(window, GC(), image, 0, 0)
        pixels = window_pixels(window)
        assert pixels[0, 0] == alloc_color("yellow")  # transparent cell
        assert pixels[0, 1] == alloc_color("red")     # opaque cell


class TestKeysyms:
    def test_paper_pinned_keycodes(self):
        from repro.xlib.keysym import char_to_keycode, keysym_to_keycode

        assert char_to_keycode("w") == (198, False)
        assert char_to_keycode("!") == (197, True)
        assert keysym_to_keycode("Shift_L") == (174, False)

    def test_lookup_string(self):
        from repro.xlib.keysym import lookup_string, string_to_keysym

        text, sym = lookup_string(198)
        assert text == "w" and sym == ord("w")
        text, sym = lookup_string(197, shifted=True)
        assert text == "!" and sym == ord("!")
        text, sym = lookup_string(174)
        assert text == "" and sym == string_to_keysym("Shift_L")

    def test_keysym_names(self):
        from repro.xlib.keysym import keysym_to_string, string_to_keysym

        assert string_to_keysym("exclam") == ord("!")
        assert keysym_to_string(ord("!")) == "exclam"
        assert keysym_to_string(string_to_keysym("Return")) == "Return"
        assert keysym_to_string(ord("w")) == "w"

    def test_every_printable_ascii_typable(self):
        from repro.xlib.keysym import char_to_keycode

        for code in range(33, 127):
            keycode, __ = char_to_keycode(chr(code))
            assert keycode != 0, "no key for %r" % chr(code)
